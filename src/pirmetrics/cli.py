"""Command line front end: compute, summarize, correlate, report.

Each setting comes from its flag, else from the json config file given
with --config, else from its default; the PIRMETRICS_OUT environment
variable stands in only for the default output directory. Config values
go through the same types and checks as flags, and each command ignores
the config keys it does not read, so one config file serves the whole
pipeline. Logs go to stderr, data to files named
<dataset>.<report>.<format> under the output directory.

A command returns its files rather than writing them, and the group's
invoke writes the whole set: every file or, on any error, none, so a
failed run leaves an earlier run's files as they were.

Where the platform can fork, the process may run on two CPUs or more
and the platform tells which one compute runs on, compute reads a large
impact table (see io.FORK_MIN_BYTES) in a second process, pinned to the
other CPUs, while it reads the events. Everywhere else, and for smaller
inputs, the two are read one after the other; the outputs and exit
codes are the same either way.

Exit codes
    0  success
    2  usage error (bad flags, arguments or config values, --kind scatter
       without both --x and --y or with one variable for both, or an
       output that cannot be written)
    3  malformed, missing or unreadable input file, named with its line
       where it has one (a csv that is not UTF-8 included)
    4  missing impact value under the strict policy
    5  no authors in the input
    6  not enough groups for the requested statistics, or a profiles row
       with no group in summarize or correlate
    7  unknown author, variable or report element, a family the impact
       table lacks, or report --kind ordered on profiles with no family
    8  per-author computation failures, or a summary statistic or a
       summarize delta that overflows the float range

An error's exit code follows from its kind, whichever command meets it:
the group's invoke maps each library error through EXIT_CODES.
"""

from __future__ import annotations

import gc
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
from .io import IngestError, _encodable, _FieldError, _TableRead, load_events, load_impact_table, load_scalars, save_texts
from .model import SJR, SNIP, YearWindow, __version__
from .report import GroupError, ReportError
from .stats import StatsError

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MISSING_IMPACT = 4
EXIT_NO_AUTHORS = 5
EXIT_FEW_GROUPS = 6
EXIT_UNKNOWN_NAME = 7
EXIT_COMPUTE = 8

DEFAULT_WINDOW = "2009:2013"
DEFAULT_FAMILIES = (SJR, SNIP)
# what a command returns for Pipeline.invoke to write: the output directory, the dataset
# name and the (report name, text, extension) of each file
Files = tuple[str, str, list[tuple[str, str, str]]]
# the settings a config file may hold; any other key is ignored
CONFIG_KEYS = frozenset({"events", "impacts", "scalars", "profiles", "out", "format", "window",
                         "families", "missing", "window_policy", "fail_fast", "name"})
# the json type of each config value, as its flag reads it; every other key holds a string
CONFIG_TYPES = {"families": "a string or a list of strings", "fail_fast": "a boolean or a string"}


def _fail(message: str, exit_code: int) -> click.ClickException:
    failure = click.ClickException(message)
    failure.exit_code = exit_code
    return failure


def _log(message: str) -> None:
    click.echo(message, err=True)


# library error -> exit code; the first kind an error is an instance of wins
EXIT_CODES = (
    (IngestError, EXIT_INPUT),
    (MissingImpactError, EXIT_MISSING_IMPACT),
    (EngineError, EXIT_COMPUTE),
    (GroupError, EXIT_FEW_GROUPS),
    (ReportError, EXIT_UNKNOWN_NAME),
    (StatsError, EXIT_COMPUTE),
)
_LIBRARY_ERRORS = tuple(kind for kind, _ in EXIT_CODES)


class Pipeline(click.Group):
    """The command group; its invoke is the one place a library error becomes an exit code.

    It also writes the (output directory, dataset, files) a command
    returns, and pauses the cyclic garbage collector for both.
    """

    def invoke(self, ctx: click.Context):
        # a command makes next to no reference cycles, but the collector would rescan
        # every event and row it holds many times over; a caller's setting is restored
        enabled = gc.isenabled()
        gc.disable()
        try:
            _write_files(*super().invoke(ctx))
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
    import json  # here, so a run on csv files alone, without --config, never loads it
    path = Path(value)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise _fail(f"config file {path} cannot be read: {exc.strerror or exc}", EXIT_INPUT)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the recursion limit
        raise _fail(f"config file {path} is not valid json: {exc}", EXIT_INPUT)
    if not isinstance(config, dict):
        raise _fail(f"config file {path} must hold a json object", EXIT_INPUT)
    if isinstance(config.get("families"), str):
        config["families"] = [config["families"]]
    # a null value leaves its setting at the default
    ctx.default_map = {
        key: value for key, value in config.items() if key in CONFIG_KEYS and value is not None
    }
    try:
        for key, value in ctx.default_map.items():
            if key == "fail_fast" and isinstance(value, bool):
                continue
            texts = value if key == "families" and isinstance(value, list) else [value]
            if not all(isinstance(text, str) for text in texts):
                raise _FieldError(f"{key} must be {CONFIG_TYPES.get(key, 'a string')}, got {value!r}")
            for text in texts:  # a json escape may spell a lone surrogate, which no path, file name or output can hold
                _encodable(text, key)
    except _FieldError as exc:
        raise _fail(f"config file {path}: {exc}", EXIT_USAGE) from None


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
    return tuple(dict.fromkeys(value))


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


def _format(path: Path) -> str:
    """An input file's format: json if its name ends in .json, else csv."""
    return "json" if path.suffix.lower() == ".json" else "csv"


def _read(loader, path: Path):
    """Load one input file in its format."""
    return loader(path, _format(path))


def _write_files(out: str, dataset: str, files: list[tuple[str, str, str]]) -> None:
    """Write each (report name, text, extension) file under out, all of them or none."""
    paths = [Path(out) / f"{dataset}.{report_name}.{ext}" for report_name, _, ext in files]
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _fail(f"cannot create output directory {out}: {exc.strerror or exc}", EXIT_USAGE)
    try:
        save_texts({path: text for path, (_, text, _) in zip(paths, files)})
    except OSError as exc:
        raise _fail(f"cannot write {exc.filename}: {exc.strerror or exc}", EXIT_USAGE)
    for path in paths:
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


def _print_version(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(f"pirmetrics, version {__version__}", color=ctx.color)
        ctx.exit()


@click.group(cls=Pipeline)
# a plain flag: click.version_option looks its texts up through gettext, which imports locale
@click.option("--version", is_flag=True, expose_value=False, is_eager=True, callback=_print_version,
              help="Show the version and exit.")
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
) -> Files:
    """Compute per-author profiles from events and an impact table."""
    events, impacts = _require(events, "--events"), _require(impacts, "--impacts")
    table_fmt = _format(impacts)
    # the two reads share no state; in a child, the table's read runs on another CPU
    with _TableRead(impacts, table_fmt, events) as table_source:
        corpora = _read(load_events, events)
        table = load_impact_table(table_source, table_fmt)
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
    return out, name or events.stem, [("profiles", rpt.render_table(header, data, fmt), fmt)]


@main.command()
@table_options
def summarize(profiles: Path | None, scalars: Path | None, out: str, format: str, name: str | None) -> Files:
    """Group summaries, pooled statistics and variance decomposition."""
    rows = _load_rows(profiles, scalars)
    tables = [("groups", rpt.group_summary(rows))]
    if len({row.group for row in rows}) < 2:
        _log("warning: single group, skipping variance decomposition")
    else:
        tables += zip(("aggregate", "deltas"), rpt.aggregate_report(rows))
    files = [(report_name, rpt.render_table(header, data, format), format) for report_name, (header, data) in tables]
    return out, name or profiles.stem, files


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
) -> Files:
    """Per-group correlation matrices with significance marks."""
    rows = _load_rows(profiles, scalars)
    header, data = rpt.correlation_report(rows, method=method, variables=variables or None)
    if format == "text":
        file = (method, rpt.render_correlation_text(data, method), "txt")
    else:
        file = (method, rpt.render_table(header, data, format, formatters=rpt.CORRELATION_FORMATTERS), format)
    return out, name or profiles.stem, [file]


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
) -> Files:
    """Figure-data exports: boxplot summaries, scatter pairs, orderings."""
    if "scatter" in kinds and not (x_var and y_var and x_var != y_var):
        raise click.UsageError("--kind scatter needs both --x and --y, naming two different variables")
    rows = _load_rows(profiles, scalars)
    files = []
    for kind in dict.fromkeys(kinds or ("boxplot",)):
        header, data = rpt.figure_data(
            rows, "ordered_dimensions" if kind == "ordered" else kind,
            variables=variables or None, x=x_var, y=y_var, order_family=order_family,
        )
        files.append((kind, rpt.render_table(header, data, format), format))
        if svg and kind == "boxplot":
            files.append((kind, rpt.render_boxplot_svg(data), "svg"))
    return out, name or profiles.stem, files


if __name__ == "__main__":
    main()
