"""Command line front end: compute, summarize, correlate, report.

Each setting comes from its flag, else from the json config file given
with --config, else from its default; the PIRMETRICS_OUT environment
variable stands in only for the default output directory. Config values
go through the same types and checks as flags, and each command ignores
the config keys it does not read, so one config file serves the whole
pipeline. Logs go to stderr, data to files named
<dataset>.<report>.<format> under the output directory.

Exit codes
    0  success
    2  usage error (bad flags, arguments or config values, --kind scatter
       without both --x and --y, or an output that cannot be written)
    3  malformed, missing or unreadable input file, named with its line
       where it has one (a csv that is not UTF-8 included)
    4  missing impact value under the strict policy
    5  no authors in the input
    6  not enough groups for the requested statistics, or a profiles row
       with no group in summarize or correlate
    7  unknown author, variable or report element, a family the impact
       table lacks, or report --kind ordered on profiles with no family
    8  per-author computation failures

An error's exit code follows from its kind, whichever command meets it:
the group's invoke maps each library error through EXIT_CODES.
"""

from __future__ import annotations

import gc
import json
import os
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
from .model import SJR, SNIP, YearWindow
from .report import GroupError, ReportError

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MISSING_IMPACT = 4
EXIT_NO_AUTHORS = 5
EXIT_FEW_GROUPS = 6
EXIT_UNKNOWN_NAME = 7
EXIT_COMPUTE = 8

DEFAULT_WINDOW = "2009:2013"
DEFAULT_FAMILIES = (SJR, SNIP)
# the settings a config file may hold; any other key is ignored
CONFIG_KEYS = frozenset({"events", "impacts", "scalars", "profiles", "out", "format", "window",
                         "families", "missing", "window_policy", "fail_fast", "name"})


class CliFailure(click.ClickException):
    """ClickException with a configurable exit code."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(message: str, exit_code: int) -> "CliFailure":
    return CliFailure(message, exit_code)


def _log(message: str) -> None:
    click.echo(message, err=True)


# library error -> exit code; the first kind an error is an instance of wins
EXIT_CODES = (
    (IngestError, EXIT_INPUT),
    (MissingImpactError, EXIT_MISSING_IMPACT),
    (EngineError, EXIT_COMPUTE),
    (GroupError, EXIT_FEW_GROUPS),
    (ReportError, EXIT_UNKNOWN_NAME),
)
_LIBRARY_ERRORS = tuple(kind for kind, _ in EXIT_CODES)


class Pipeline(click.Group):
    """The command group; its invoke is the one place a library error becomes an exit code.

    It also pauses the cyclic garbage collector for the command.
    """

    def invoke(self, ctx: click.Context):
        # a command makes next to no reference cycles, but the collector would rescan
        # every event and row it holds many times over; a caller's setting is restored
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except BatchError as exc:
            for author_id, err in exc.failures:
                _log(f"error: {author_id}: {err}")
            missing = any(isinstance(err, MissingImpactError) for _, err in exc.failures)
            raise _fail(str(exc), EXIT_MISSING_IMPACT if missing else EXIT_COMPUTE) from None
        except _LIBRARY_ERRORS as exc:
            # --fail-fast wraps an author's error; its exit code is the wrapped one's
            origin = exc.__cause__ if isinstance(exc.__cause__, _LIBRARY_ERRORS) else exc
            raise _fail(str(exc), next(code for kind, code in EXIT_CODES if isinstance(origin, kind))) from None
        finally:
            if enabled:
                gc.enable()


def _load_config(ctx: click.Context, param: click.Parameter, value: str | None) -> None:
    """Make the json object in the --config file the command's defaults."""
    if value is None:
        return
    path = Path(value)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise _fail(f"config file {path} cannot be read: {exc.strerror or exc}", EXIT_INPUT)
    except ValueError as exc:
        raise _fail(f"config file {path} is not valid json: {exc}", EXIT_INPUT)
    if not isinstance(config, dict):
        raise _fail(f"config file {path} must hold a json object", EXIT_INPUT)
    if isinstance(config.get("families"), str):
        config["families"] = [config["families"]]
    # a null value leaves its setting at the default
    ctx.default_map = {
        key: value for key, value in config.items() if key in CONFIG_KEYS and value is not None
    }


def _input_file(ctx: click.Context, param: click.Parameter, value: str | None) -> Path | None:
    return None if value is None else Path(value)


def _parsed_by(parse):
    """An option callback that parses the value, a ValueError becoming a usage error."""

    def callback(ctx: click.Context, param: click.Parameter, value: str):
        try:
            return parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None

    return callback


def _check_families(ctx: click.Context, param: click.Parameter, value: tuple[str, ...]) -> tuple[str, ...]:
    if not value:
        raise click.BadParameter("at least one indicator family required")
    if not all(f.strip() for f in value):
        raise click.BadParameter("indicator family names must not be blank")
    if len({f.lower() for f in value}) != len(set(value)):
        raise click.BadParameter(f"indicator families differ only in case: {', '.join(value)}")
    return value


def _check_variables(ctx: click.Context, param: click.Parameter, value: tuple[str, ...]) -> tuple[str, ...]:
    if value and len(set(value)) < 2:
        raise click.BadParameter(f"at least two distinct variables required, got {', '.join(dict.fromkeys(value))}")
    return value


def _input_option(flag: str, help: str):
    return click.option(flag, type=str, callback=_input_file, help=help)


scalars_option = _input_option("--scalars", "Scalar metrics (csv/json).")
profiles_option = _input_option("--profiles", "Precomputed profiles (csv/json).")
# a callable default rather than envvar=, which would let the environment beat the config
out_option = click.option(
    "--out", type=str, default=lambda: os.environ.get("PIRMETRICS_OUT", "out"), help="Output directory."
)
format_option = click.option(
    "--format", type=click.Choice(["csv", "json", "text"]), default="csv", help="Output format."
)
config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_load_config,
    help="JSON config file (flags win).",
)
name_option = click.option("--name", type=str, help="Dataset label used in output file names.")


def table_options(fn):
    """The options of the commands that read a profiles table."""
    for option in (name_option, config_option, format_option, out_option, profiles_option, scalars_option):
        fn = option(fn)
    return fn


def _require(path: Path | None, flag: str) -> Path:
    if path is None:
        raise _fail(f"missing required input: {flag}", EXIT_USAGE)
    return path


def _read(loader, path: Path):
    """Load one input file, as json if its name ends in .json, else as csv."""
    return loader(path, "json" if path.suffix.lower() == ".json" else "csv")


def _write_output(out: str, dataset: str, report_name: str, text: str, ext: str) -> None:
    path = Path(out) / f"{dataset}.{report_name}.{ext}"
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _fail(f"cannot create output directory {out}: {exc.strerror or exc}", EXIT_USAGE)
    try:
        save_text(text, path)
    except OSError as exc:
        raise _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_USAGE)
    _log(f"wrote {path}")


def _load_rows(profiles: Path | None, scalars: Path | None) -> list[rpt.AuthorTableRow]:
    rows = _read(rpt.load_profiles, _require(profiles, "--profiles"))
    if not rows:
        raise _fail("no authors in profiles input", EXIT_NO_AUTHORS)
    metrics = _read(load_scalars, scalars) if scalars else {}
    return [
        row._replace(papers=m.papers, cites=m.cites, h=m.h) if (m := metrics.get(row.author_id)) else row
        for row in rows
    ]


@click.group(cls=Pipeline)
@click.version_option(package_name="pirmetrics")
def main() -> None:
    """Author citation potential: dimensions, ratios and grouped statistics."""


@main.command()
@_input_option("--events", "Event rows (csv/json).")
@_input_option("--impacts", "Impact table (csv/json).")
@scalars_option
@out_option
@format_option
@click.option("--window", type=str, default=DEFAULT_WINDOW, callback=_parsed_by(YearWindow.parse),
              help="Target window START:END.")
@click.option("--family", "families", multiple=True, default=DEFAULT_FAMILIES, callback=_check_families,
              help="Indicator family (repeatable).")
@click.option("--missing", type=str, default="drop", callback=_parsed_by(MissingValuePolicy.parse),
              help="strict | drop | nearest:K.")
@click.option("--window-policy", type=click.Choice([p.value for p in WindowPolicy]), default="strict",
              callback=_parsed_by(WindowPolicy.parse), help="Window policy.")
@click.option("--fail-fast", is_flag=True, help="Abort on first author failure.")
@config_option
@name_option
def compute(
    events: Path | None, impacts: Path | None, scalars: Path | None, out: str, format: str,
    window: YearWindow, families: tuple[str, ...], missing: MissingValuePolicy,
    window_policy: WindowPolicy, fail_fast: bool, name: str | None,
) -> None:
    """Compute per-author profiles from events and an impact table."""
    events, impacts = _require(events, "--events"), _require(impacts, "--impacts")
    corpora = _read(load_events, events)
    table = _read(load_impact_table, impacts)
    scalar_metrics = _read(load_scalars, scalars) if scalars else {}

    if not corpora:
        raise _fail("no authors in events input", EXIT_NO_AUTHORS)
    known = table.indicators()
    for family in families:
        if family not in known:
            raise _fail(f"impact table has no {family} values; it has {', '.join(sorted(known)) or 'none'}",
                        EXIT_UNKNOWN_NAME)

    profiles_by_family = {
        family: compute_profiles(corpora, table, family, window, missing, window_policy, fail_fast=fail_fast)
        for family in families
    }
    rows = rpt.author_table(profiles_by_family, scalar_metrics, {c.author_id: c.group for c in corpora})
    header, data = rpt.author_table_export(rows)
    # profiles are read back only as csv or json, so text writes csv
    fmt = "csv" if format == "text" else format
    _write_output(out, name or events.stem, "profiles", rpt.render_table(header, data, fmt), fmt)


@main.command()
@table_options
def summarize(profiles: Path | None, scalars: Path | None, out: str, format: str, name: str | None) -> None:
    """Group summaries, pooled statistics and variance decomposition."""
    rows = _load_rows(profiles, scalars)
    dataset = name or profiles.stem

    header, data = rpt.group_summary(rows)
    _write_output(out, dataset, "groups", rpt.render_table(header, data, format), format)

    if len({row.group for row in rows}) < 2:
        _log("warning: single group, skipping variance decomposition")
        return
    for report_name, (header, data) in zip(("aggregate", "deltas"), rpt.aggregate_report(rows)):
        _write_output(out, dataset, report_name, rpt.render_table(header, data, format), format)


@main.command()
@table_options
@click.option(
    "--method",
    type=click.Choice(["pearson", "spearman"]),
    default="pearson",
    show_default=True,
)
@click.option("--variable", "variables", multiple=True, callback=_check_variables,
              help="Variables to correlate (repeatable; at least two distinct).")
def correlate(
    profiles: Path | None, scalars: Path | None, out: str, format: str, name: str | None,
    method: str, variables: tuple[str, ...],
) -> None:
    """Per-group correlation matrices with significance marks."""
    rows = _load_rows(profiles, scalars)
    dataset = name or profiles.stem
    header, data = rpt.correlation_report(rows, method=method, variables=variables or None)
    if format == "text":
        _write_output(out, dataset, method, rpt.render_correlation_text(data, method), "txt")
    else:
        text = rpt.render_table(header, data, format, formatters=rpt.CORRELATION_FORMATTERS)
        _write_output(out, dataset, method, text, format)


@main.command("report")
@table_options
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
    profiles: Path | None, scalars: Path | None, out: str, format: str, name: str | None,
    kinds: tuple[str, ...], variables: tuple[str, ...], x_var: str | None, y_var: str | None,
    order_family: str | None, svg: bool,
) -> None:
    """Figure-data exports: boxplot summaries, scatter pairs, orderings."""
    if "scatter" in kinds and not (x_var and y_var):
        raise click.UsageError("--kind scatter needs both --x and --y")
    rows = _load_rows(profiles, scalars)
    dataset = name or profiles.stem
    for kind in kinds or ("boxplot",):
        header, data = rpt.figure_data(
            rows, "ordered_dimensions" if kind == "ordered" else kind,
            variables=variables or None, x=x_var, y=y_var, order_family=order_family,
        )
        _write_output(out, dataset, kind, rpt.render_table(header, data, format), format)
        if svg and kind == "boxplot":
            _write_output(out, dataset, kind, rpt.render_boxplot_svg(data), "svg")


if __name__ == "__main__":
    main()
