"""Command line front end: compute, summarize, correlate, report.

Configuration precedence is flags, then a json config file (--config),
then defaults; the PIRMETRICS_OUT environment variable overrides only
the default output directory. Logs go to stderr, data to files (or
stdout with '-'). Outputs are named <dataset>.<report>.<format>.

Exit codes
    0  success
    2  usage error (bad flags or arguments)
    3  malformed input file
    4  missing impact value under the strict policy
    5  no authors in the input
    6  not enough groups for the requested statistics
    7  unknown author, variable or report element
    8  per-author computation failures
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import report as rpt
from .engine import (
    BatchError,
    EngineError,
    MissingImpactError,
    MissingValuePolicy,
    WindowPolicy,
    compute_profiles,
)
from .io import IngestError, load_events, load_impact_table, load_scalars, save_text
from .model import SJR, SNIP, ModelError, YearWindow
from .report import ReportError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MISSING_IMPACT = 4
EXIT_NO_AUTHORS = 5
EXIT_FEW_GROUPS = 6
EXIT_UNKNOWN_NAME = 7
EXIT_COMPUTE = 8

DEFAULT_WINDOW = "2009:2013"
DEFAULT_FAMILIES = (SJR, SNIP)


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    window: YearWindow
    families: tuple[str, ...]
    missing: MissingValuePolicy
    window_policy: WindowPolicy
    out_dir: Path
    fmt: str
    fail_fast: bool
    dataset: str | None
    paths: dict[str, Path] = field(default_factory=dict)


class CliFailure(click.ClickException):
    """ClickException with a configurable exit code."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(message: str, exit_code: int) -> "CliFailure":
    return CliFailure(message, exit_code)


def _log(message: str) -> None:
    click.echo(message, err=True)


def shared_options(fn):
    options = [
        click.option("--events", "events_path", type=str, help="Event rows (csv/json)."),
        click.option("--impacts", "impacts_path", type=str, help="Impact table (csv/json)."),
        click.option("--scalars", "scalars_path", type=str, help="Scalar metrics (csv/json)."),
        click.option("--profiles", "profiles_path", type=str, help="Precomputed profiles (csv/json)."),
        click.option("--out", "out_dir", type=str, help="Output directory."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), help="Output format."),
        click.option("--window", "window_text", type=str, help="Target window START:END."),
        click.option("--family", "families", multiple=True, help="Indicator family (repeatable)."),
        click.option("--missing", "missing_text", type=str, help="strict | drop | nearest:K."),
        click.option(
            "--window-policy", "window_policy_text",
            type=click.Choice([p.value for p in WindowPolicy]), help="Window policy.",
        ),
        click.option("--fail-fast", "fail_fast", is_flag=True, default=None, help="Abort on first author failure."),
        click.option("--config", "config_path", type=str, help="JSON config file (flags win)."),
        click.option("--name", "dataset", type=str, help="Dataset label used in output file names."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _resolve(ctx_params: dict, env: dict) -> RunConfig:
    config: dict = {}
    if ctx_params.get("config_path"):
        path = Path(ctx_params["config_path"])
        if not path.exists():
            raise _fail(f"config file not found: {path}", EXIT_INPUT)
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise _fail(f"config file {path} is not valid json: {exc}", EXIT_INPUT)
        if not isinstance(config, dict):
            raise _fail(f"config file {path} must hold a json object", EXIT_INPUT)

    def pick(flag_key: str, config_key: str, default=None):
        value = ctx_params.get(flag_key)
        if value is not None and value != ():
            return value
        if config_key in config:
            return config[config_key]
        return default

    try:
        window = YearWindow.parse(str(pick("window_text", "window", DEFAULT_WINDOW)))
    except ModelError as exc:
        raise _fail(str(exc), EXIT_USAGE)
    families = pick("families", "families", None)
    if families is None:
        families = DEFAULT_FAMILIES
    elif isinstance(families, str):
        families = (families,)
    else:
        families = tuple(families)
    if not families:
        raise _fail("at least one indicator family required", EXIT_USAGE)
    if len({f.lower() for f in families}) != len(set(families)):
        raise _fail(f"indicator families differ only in case: {', '.join(families)}", EXIT_USAGE)
    try:
        missing = MissingValuePolicy.parse(str(pick("missing_text", "missing", "drop")))
        window_policy = WindowPolicy.parse(
            str(pick("window_policy_text", "window_policy", "strict"))
        )
    except EngineError as exc:
        raise _fail(str(exc), EXIT_USAGE)

    out_dir = pick("out_dir", "out", None)
    if out_dir is None:
        out_dir = env.get("PIRMETRICS_OUT", "out")
    fail_fast = pick("fail_fast", "fail_fast", False)

    paths = {}
    for key in ("events", "impacts", "scalars", "profiles"):
        value = pick(f"{key}_path", key, None)
        if value is not None:
            path = Path(value)
            if not path.exists():
                raise _fail(f"{key} file not found: {path}", EXIT_INPUT)
            paths[key] = path

    return RunConfig(
        window=window,
        families=families,
        missing=missing,
        window_policy=window_policy,
        out_dir=Path(out_dir),
        fmt=str(pick("fmt", "format", "csv")),
        fail_fast=bool(fail_fast),
        dataset=pick("dataset", "name", None),
        paths=paths,
    )


def _require(config: RunConfig, key: str, flag: str) -> Path:
    if key not in config.paths:
        raise _fail(f"missing required input: {flag}", EXIT_USAGE)
    return config.paths[key]


def _dataset_label(config: RunConfig, fallback_key: str) -> str:
    if config.dataset:
        return config.dataset
    if fallback_key in config.paths:
        return config.paths[fallback_key].stem
    return "dataset"


def _input_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def _write_output(config: RunConfig, dataset: str, report_name: str, text: str, ext: str | None = None) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / f"{dataset}.{report_name}.{ext or config.fmt}"
    save_text(text, path)
    _log(f"wrote {path}")
    return path


def _load_rows(config: RunConfig) -> list[rpt.AuthorTableRow]:
    profiles_path = _require(config, "profiles", "--profiles")
    try:
        rows = rpt.load_profiles(profiles_path, _input_format(profiles_path))
    except IngestError as exc:
        raise _fail(str(exc), EXIT_INPUT)
    if not rows:
        raise _fail("no authors in profiles input", EXIT_NO_AUTHORS)
    if "scalars" in config.paths:
        try:
            scalars = load_scalars(config.paths["scalars"], _input_format(config.paths["scalars"]))
        except IngestError as exc:
            raise _fail(str(exc), EXIT_INPUT)
        merged = []
        for row in rows:
            metrics = scalars.get(row.author_id)
            if metrics is None:
                merged.append(row)
            else:
                merged.append(
                    rpt.AuthorTableRow(
                        author_id=row.author_id,
                        group=row.group,
                        papers=metrics.papers,
                        cites=metrics.cites,
                        h=metrics.h,
                        families=row.families,
                    )
                )
        rows = merged
    return rows


@click.group()
@click.version_option(package_name="pirmetrics")
def main() -> None:
    """Author citation potential: dimensions, ratios and grouped statistics."""


@main.command()
@shared_options
def compute(**params) -> None:
    """Compute per-author profiles from events and an impact table."""
    config = _resolve(params, _env())
    events_path = _require(config, "events", "--events")
    impacts_path = _require(config, "impacts", "--impacts")
    try:
        corpora = load_events(events_path, _input_format(events_path))
        table = load_impact_table(impacts_path, _input_format(impacts_path))
        scalars = (
            load_scalars(config.paths["scalars"], _input_format(config.paths["scalars"]))
            if "scalars" in config.paths
            else {}
        )
    except IngestError as exc:
        raise _fail(str(exc), EXIT_INPUT)

    if not corpora:
        raise _fail("no authors in events input", EXIT_NO_AUTHORS)

    profiles_by_family = {}
    for family in config.families:
        try:
            profiles_by_family[family] = compute_profiles(
                corpora,
                table,
                family,
                config.window,
                config.missing,
                config.window_policy,
                fail_fast=config.fail_fast,
            )
        except MissingImpactError as exc:
            raise _fail(str(exc), EXIT_MISSING_IMPACT)
        except BatchError as exc:
            for author_id, err in exc.failures:
                _log(f"error: {author_id}: {err}")
            if any(isinstance(err, MissingImpactError) for _, err in exc.failures):
                raise _fail(str(exc), EXIT_MISSING_IMPACT)
            raise _fail(str(exc), EXIT_COMPUTE)
        except EngineError as exc:
            if isinstance(exc.__cause__, MissingImpactError):
                raise _fail(str(exc), EXIT_MISSING_IMPACT)
            raise _fail(str(exc), EXIT_COMPUTE)

    groups = {c.author_id: c.group for c in corpora}
    try:
        rows = rpt.author_table(profiles_by_family, scalars, groups)
    except ReportError as exc:
        raise _fail(str(exc), EXIT_UNKNOWN_NAME)

    dataset = _dataset_label(config, "events")
    header, data = rpt.author_table_export(rows)
    fmt = "csv" if config.fmt == "text" else config.fmt
    _write_output(config, dataset, "profiles", rpt.render_table(header, data, fmt), ext=fmt)


@main.command()
@shared_options
def summarize(**params) -> None:
    """Group summaries, pooled statistics and variance decomposition."""
    config = _resolve(params, _env())
    rows = _load_rows(config)
    dataset = _dataset_label(config, "profiles")

    try:
        blocks = rpt.group_summary(rows)
    except ReportError as exc:
        raise _fail(str(exc), EXIT_FEW_GROUPS)
    header, data = rpt.group_summary_export(blocks)
    _write_output(config, dataset, "groups", rpt.render_table(header, data, config.fmt))

    group_count = len({row.group for row in rows})
    if group_count < 2:
        _log("warning: single group, skipping variance decomposition")
        return
    try:
        aggregate = rpt.aggregate_report(rows)
    except ReportError as exc:
        raise _fail(str(exc), EXIT_FEW_GROUPS)
    header, data = rpt.aggregate_export(aggregate)
    _write_output(config, dataset, "aggregate", rpt.render_table(header, data, config.fmt))
    header, data = rpt.deltas_export(aggregate)
    _write_output(config, dataset, "deltas", rpt.render_table(header, data, config.fmt))


@main.command()
@shared_options
@click.option(
    "--method",
    type=click.Choice(["pearson", "spearman"]),
    default="pearson",
    show_default=True,
)
@click.option("--variable", "variables", multiple=True, help="Variables to correlate (repeatable).")
def correlate(method: str, variables: tuple[str, ...], **params) -> None:
    """Per-group correlation matrices with significance marks."""
    config = _resolve(params, _env())
    rows = _load_rows(config)
    dataset = _dataset_label(config, "profiles")
    wanted = variables or None
    try:
        matrices = rpt.correlation_report(rows, method=method, variables=wanted)
    except ReportError as exc:
        raise _fail(str(exc), EXIT_UNKNOWN_NAME)
    if config.fmt == "text":
        text = rpt.render_correlation_text(matrices)
        _write_output(config, dataset, method, text, ext="txt")
    else:
        header, data = rpt.correlation_export(matrices)
        _write_output(
            config,
            dataset,
            method,
            rpt.render_table(header, data, config.fmt, formatters=rpt.CORRELATION_FORMATTERS),
        )


@main.command("report")
@shared_options
@click.option(
    "--kind",
    "kinds",
    multiple=True,
    type=click.Choice(["boxplot", "scatter", "ordered"]),
    help="Figure data to export (repeatable; default boxplot).",
)
@click.option("--variable", "variables", multiple=True, help="Variables for boxplot rows.")
@click.option("--x", "x_var", type=str, help="Scatter x variable.")
@click.option("--y", "y_var", type=str, help="Scatter y variable.")
@click.option("--order-family", type=str, help="Family whose impact dimension orders authors.")
@click.option("--svg", is_flag=True, default=False, help="Also write an SVG for boxplot exports.")
def report_cmd(
    kinds: tuple[str, ...],
    variables: tuple[str, ...],
    x_var: str | None,
    y_var: str | None,
    order_family: str | None,
    svg: bool,
    **params,
) -> None:
    """Figure-data exports: boxplot summaries, scatter pairs, orderings."""
    config = _resolve(params, _env())
    rows = _load_rows(config)
    dataset = _dataset_label(config, "profiles")
    for kind in kinds or ("boxplot",):
        try:
            if kind == "boxplot":
                header, data = rpt.figure_data(rows, "boxplot", variables=variables or None)
            elif kind == "scatter":
                header, data = rpt.figure_data(rows, "scatter", x=x_var, y=y_var)
            else:
                header, data = rpt.figure_data(
                    rows, "ordered_dimensions", order_family=order_family
                )
        except ReportError as exc:
            raise _fail(str(exc), EXIT_UNKNOWN_NAME)
        name = {"boxplot": "boxplot", "scatter": "scatter", "ordered": "ordered"}[kind]
        fmt = "csv" if config.fmt == "text" else config.fmt
        _write_output(config, dataset, name, rpt.render_table(header, data, fmt), ext=fmt)
        if svg and kind == "boxplot":
            _write_output(config, dataset, name, rpt.render_boxplot_svg(data), ext="svg")


def _env() -> dict:
    import os

    return dict(os.environ)


if __name__ == "__main__":
    main()
