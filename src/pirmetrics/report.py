"""Assembly of per-author rows, grouped summaries, correlations and
figure-data exports, plus their csv/json/text renderings.

Variable naming used throughout reports and the command line:
    papers, cites, h                       supplied scalar counters
    p_<fam>, i_<fam>, r_<fam>              dimensions for one family
    pi_<fam>, pr_<fam>, ir_<fam>, pi2r_<fam>   the four ratios

A family cell's name is model.variable_name(field, family): the field,
then the family name lowercased, so the canonical profiles.csv header is

    author_id,group,papers,cites,h,
    p_sjr,i_sjr,r_sjr,pi_sjr,pr_sjr,ir_sjr,pi2r_sjr,
    p_snip,...,pi2r_snip

Undefined values render as the sentinel NA, never as 0 or blank.
Dimensions and ratios render at 3 decimals, correlations at 2, both
rounded half to even. Every report is a pure function of its inputs, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import combinations, groupby
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import stats
from .io import (
    ScalarMetrics, _encodable, _encode_table, _FieldError, _located, _parse_count, _parse_float, _rows, _text,
    save_text,
)
from .model import FAMILY_FIELDS, SJR, SNIP, DimensionCells, IndicatorName, IndicatorProfile, variable_name

NA = "NA"

Table = tuple[list[str], list[list]]  # a report: its header, and one list of raw cells per row

_NO_CELLS = (None,) * len(FAMILY_FIELDS)  # the cells of a family a row lacks
_CANONICAL_FAMILIES = {SJR.lower(): SJR, SNIP.lower(): SNIP}  # a profiles column suffix -> its family
SCALAR_FIELDS = ScalarMetrics._fields[1:]  # papers, cites, h


class ReportError(ValueError):
    """Invalid input to a report assembly."""


class GroupError(ReportError):
    """Rows whose groups cannot carry the requested grouped statistics."""


class AuthorTableRow(NamedTuple):
    """One author's scalar counters plus per-family dimensions and ratios."""

    author_id: str
    group: str | None
    papers: int | None
    cites: int | None
    h: int | None
    families: Mapping[IndicatorName, DimensionCells]

    def value(self, variable: str) -> float | None:
        """Look a report variable up by name (e.g. 'h' or 'pi_sjr'), as _columns does."""
        return _columns((self,), (variable,))[0][0]


def _variable_names(families: Iterable[IndicatorName]) -> list[str]:
    """Every variable of a row with these families, scalar counters first."""
    return [*SCALAR_FIELDS, *(variable_name(f, family) for family in families for f in FAMILY_FIELDS)]


def author_table(
    profiles_by_family: Mapping[IndicatorName, Sequence[IndicatorProfile]],
    scalars: Mapping[str, ScalarMetrics],
    groups: Mapping[str, str | None] | None = None,
) -> list[AuthorTableRow]:
    """Join per-family profiles with scalar counters into table rows.

    Every author must appear in every requested family. groups maps
    author ids to their group labels (profiles do not carry them). Rows
    are ordered by (group, h descending, cites descending, papers
    descending, author id), the conventional presentation order; an
    absent counter sorts last.
    """
    if not profiles_by_family:
        raise ReportError("at least one profile family required")
    by_author: dict[str, dict[IndicatorName, IndicatorProfile]] = {}
    for family, profiles in profiles_by_family.items():
        for profile in profiles:
            by_author.setdefault(profile.author_id, {})[family] = profile
    rows = []
    for author_id, per_family in by_author.items():
        for family in profiles_by_family:
            if family not in per_family:
                raise ReportError(f"author {author_id!r} missing a {family} profile")
        metrics = scalars.get(author_id)
        rows.append(
            AuthorTableRow(
                author_id=author_id,
                group=groups.get(author_id) if groups else None,
                papers=metrics.papers if metrics else None,
                cites=metrics.cites if metrics else None,
                h=metrics.h if metrics else None,
                families={
                    family: DimensionCells.from_profile(per_family[family])
                    for family in profiles_by_family
                },
            )
        )
    return sorted(
        rows,
        key=lambda row: (
            row.group or "",
            -(row.h if row.h is not None else -1),
            -(row.cites if row.cites is not None else -1),
            -(row.papers if row.papers is not None else -1),
            row.author_id,
        ),
    )


# ---------------------------------------------------------------------------
# profiles file schema

def save_profiles(rows: Sequence[AuthorTableRow], destination, fmt: str = "csv") -> None:
    """Write author rows in the canonical profiles schema, as csv or json."""
    if fmt not in ("csv", "json"):
        raise ReportError(f"unknown format {fmt!r}; expected csv or json")
    save_text(render_table(*author_table_export(rows), fmt), destination)


def load_profiles(source, fmt: str = "csv") -> list[AuthorTableRow]:
    """Read author rows from the profiles schema.

    Families are recovered, in first-seen order, from the suffixes of
    the FAMILY_FIELDS columns; a family's field the header lacks reads
    as undefined. Lowercase suffixes matching the canonical families
    come back as SJR / SNIP, other suffixes are kept verbatim. The
    columns are the csv header, or the first json row's fields, which
    every later json row must carry exactly.
    """
    rows = []
    seen: set[str] = set()
    # (parse, position, name) of every scalar and family cell, and the slice of
    # it that holds each family's cells; both worked out once, from the header
    layout: list[tuple[Callable, int | None, str | None]] = []
    families: list[tuple[IndicatorName, slice]] = []

    def every_column(header: list[str]) -> list[str]:
        """author_id and group, then the whole header; layout gives the cells' positions."""
        position = {col: i for i, col in enumerate(header, start=2)}
        layout.extend((_parse_count, position.get(name), name) for name in SCALAR_FIELDS)
        # each family suffix, as the header spells it, in first-seen order -> {field: column}
        by_suffix: dict[str, dict[str, str]] = {}
        spellings: dict[str, str] = {}  # each suffix lowercased -> its first column
        for col in header:
            fieldname, _, suffix = col.partition("_")
            if fieldname in FAMILY_FIELDS and suffix:
                # checked: its suffix names the family in every variable and output column
                by_suffix.setdefault(suffix, {})[fieldname] = _encodable(col, "column")
                first = spellings.setdefault(suffix.lower(), col)
                if first.partition("_")[2] != suffix:  # variables name families lowercased: one would hide
                    raise _FieldError(f"columns {first!r} and {col!r} spell one family's suffix in two cases")
        for suffix, columns in by_suffix.items():
            start = len(layout)
            layout.extend((_parse_float, position.get(col), col)
                          for col in map(columns.get, FAMILY_FIELDS))
            families.append((_CANONICAL_FAMILIES.get(suffix, suffix), slice(start, len(layout))))
        return ["author_id", "group", *header]

    lineno = 1  # the header's, where every_column's errors arise
    try:
        for lineno, fields in _rows(source, fmt, ["author_id", "group"], "profiles", every_column):
            author_id = _text(fields[0], "author_id")
            if not author_id:
                raise _FieldError("empty author_id")
            if author_id in seen:
                raise _FieldError(f"duplicate author {author_id!r}")
            seen.add(author_id)
            group = _text(fields[1], "group") or None
            cells = [None if i is None else _optional(parse, fields[i], name) for parse, i, name in layout]
            rows.append(
                AuthorTableRow(
                    author_id=author_id,
                    group=group,
                    papers=cells[0],
                    cites=cells[1],
                    h=cells[2],
                    families={family: DimensionCells(*cells[part]) for family, part in families},
                )
            )
    except _FieldError as exc:
        raise _located(exc, "profiles", fmt, lineno) from None
    return rows


def _optional(parse, raw, what: str):
    """None for an undefined cell (NA or empty), else the parsed, non-negative value.

    A -0 cell reads as 0, so it renders as 0.000, not -0.000.
    """
    if parse is _parse_float and raw.__class__ is float and 0.0 <= raw < math.inf:
        return abs(raw)  # the usual json family cell, checked in one step
    if raw is None or raw == "" or raw == NA:
        return None
    value = parse(raw, what)
    if value < 0:
        raise _FieldError(f"negative {what} {value}")
    return abs(value)


# ---------------------------------------------------------------------------
# grouped and aggregate summaries

def _columns(rows: Sequence[AuthorTableRow], variables: Iterable[str]) -> list[list[float | None]]:
    """Every row's value of each variable (e.g. 'h' or 'pi_sjr'), a list per variable; a counter reads as a float.

    The one lookup of variables by name. A family cell's family is the
    first one whose lowercased name is the variable's suffix, found in
    one {lowercased name: family} map of the first row's families, built
    once per call. A row without that family is looked up on its own, as
    a first row. Variables are resolved in order, so the first that a row
    lacks raises ReportError, listing that row's variables.
    """
    lowercased = {family.lower(): family for family in reversed([*rows[0].families])}  # the first of a name wins
    columns = []
    for variable in variables:
        fieldname, _, suffix = variable.partition("_")
        if variable in SCALAR_FIELDS:
            columns.append([None if v is None else float(v) for v in map(attrgetter(variable), rows)])
        elif fieldname in FAMILY_FIELDS and suffix and suffix in lowercased:
            family, get = lowercased[suffix], attrgetter(fieldname)
            columns.append([
                _columns((row,), (variable,))[0][0] if (cells := row.families.get(family)) is None else get(cells)
                for row in rows
            ])
        else:
            names = ", ".join(_variable_names(rows[0].families))
            raise ReportError(f"unknown variable {variable!r}; available: {names}")
    return columns


def _group_columns(
    rows: Sequence[AuthorTableRow],
    variables: Sequence[str] | None,
    group_of: Callable[[AuthorTableRow], str | None],
) -> tuple[list[str], dict[str, list[float | None]], dict[str | None, dict[str, list[float | None]]]]:
    """The pooled column of every variable, and each group's slice of it.

    group_of gives a row's group key, and may raise for a row that has
    none. Variables default to those of the first row; a repeated one
    counts once, at its first place. Pooled columns are in row order,
    groups in first-seen order and a group's cells in row order, so the
    columns of a group line up; an undefined or non-finite cell is None.
    """
    variables = list(dict.fromkeys(variables)) if variables else _variable_names(rows[0].families)
    members: dict[str | None, list[int]] = {}
    for index, row in enumerate(rows):
        members.setdefault(group_of(row), []).append(index)
    pooled = {
        variable: [v if v is not None and math.isfinite(v) else None for v in column]
        for variable, column in zip(variables, _columns(rows, variables))
    }
    columns = {
        group: {variable: [column[i] for i in indices] for variable, column in pooled.items()}
        for group, indices in members.items()
    }
    return variables, pooled, columns


def _required_group(row: AuthorTableRow) -> str:
    if row.group is None:
        raise GroupError(f"author {row.author_id!r} has no group")
    return row.group


def _statistic(summarize, values, variable: str, group: str | None = None):
    """summarize(values), a StatsError naming the variable, and the group where there is one."""
    try:
        return summarize(values)
    except stats.StatsError as exc:
        raise stats.StatsError(f"{variable!r}{f' in group {group!r}' if group else ''}: {exc}") from None


SUMMARY_COLUMNS = ["n", "median", "mean", "std", "min", "max", "range"]  # stats.DescriptiveSummary's fields


def group_summary(
    rows: Sequence[AuthorTableRow],
    variables: Sequence[str] | None = None,
) -> Table:
    """The groups table: per-variable summaries of each group.

    One row per (group, variable), groups sorted. Rows must all carry a
    group. Undefined values are excluded per variable, and the excluded
    column counts them.
    """
    if not rows:
        raise ReportError("no rows")
    _, _, columns = _group_columns(rows, variables, _required_group)
    data = []
    for group in sorted(columns):
        for variable, column in columns[group].items():
            values = [v for v in column if v is not None]
            if not values:
                raise GroupError(f"group {group!r}: no defined values for {variable!r}")
            summary = _statistic(stats.describe, values, variable, group)
            data.append([group, variable, *summary, len(column) - len(values)])
    return ["group", "variable", *SUMMARY_COLUMNS, "excluded"], data


def aggregate_report(
    rows: Sequence[AuthorTableRow],
    variables: Sequence[str] | None = None,
) -> tuple[Table, Table]:
    """The aggregate table and the deltas table.

    aggregate: pooled summaries plus the within/between decomposition
    of each variable (None where fewer than two groups define it).
    Needs at least two groups; rows without a group count in the pooled
    summaries only.

    deltas: for every ratio variable present in two or more families,
    the relative median/mean offsets between family pairs (first family
    listed against each later one), as percentages of the second
    family's value, (a - b) / b. A delta that overflows the float range
    raises StatsError naming its ratio and families.
    """
    if not rows:
        raise ReportError("no rows")
    # pooled in row order: the min, max and median of equal 0.0 and -0.0 depend on it
    _, everyone, columns = _group_columns(rows, variables, lambda row: row.group)
    group_names = sorted(group for group in columns if group is not None)
    if len(group_names) < 2:
        raise GroupError("aggregate report needs at least two groups")

    pooled: dict[str, stats.DescriptiveSummary] = {}
    aggregate = []
    for variable, column in everyone.items():
        values = [v for v in column if v is not None]
        if not values:
            raise GroupError(f"no defined values for {variable!r}")
        pooled[variable] = summary = _statistic(stats.describe, values, variable)
        grouped = {g: vals for g in group_names if (vals := [v for v in columns[g][variable] if v is not None])}
        terms = (_statistic(stats.variance_decomposition, stats.GroupedSample(grouped), variable)
                 if len(grouped) >= 2 else (None,) * len(stats.VarianceDecomposition._fields))
        aggregate.append([variable, *summary, *terms])

    deltas = []
    for ratio in FAMILY_FIELDS[3:]:
        for fam_a, fam_b in combinations(rows[0].families, 2):
            a = pooled.get(variable_name(ratio, fam_a))
            b = pooled.get(variable_name(ratio, fam_b))
            if a and b and b.median != 0 and b.mean != 0:
                median_delta = 100.0 * ((a.median - b.median) / b.median)
                mean_delta = 100.0 * ((a.mean - b.mean) / b.mean)
                if not (math.isfinite(median_delta) and math.isfinite(mean_delta)):
                    raise stats.StatsError(f"{ratio!r} delta of {fam_a} against {fam_b} overflows the float range")
                deltas.append([ratio, fam_a, fam_b, median_delta, mean_delta])
    return (
        (["variable", *SUMMARY_COLUMNS, *stats.VarianceDecomposition._fields], aggregate),
        (["variable", "family_a", "family_b", "median_delta_pct", "mean_delta_pct"], deltas),
    )


# ---------------------------------------------------------------------------
# correlation report

SIGNIFICANCE_MARKS = {90: "a", 95: "b", 99: "c"}

DEFAULT_CORRELATION_VARIABLES = ("papers", "cites", "h", "p_sjr", "i_sjr", "r_sjr", "pi_sjr")


def correlation_report(
    rows: Sequence[AuthorTableRow],
    method: str = "pearson",
    variables: Sequence[str] | None = None,
) -> Table:
    """The correlations table: each group's upper-triangular correlation cells.

    One row per group and variable pair, groups sorted and a group's
    pairs in row-major order, with the cell's significance mark.
    Undefined values are excluded pairwise within a group; cells that
    cannot be computed are flagged in the note column, not fatal.
    """
    if not rows:
        raise ReportError("no rows")
    _, _, columns = _group_columns(rows, variables or DEFAULT_CORRELATION_VARIABLES, _required_group)
    data = []
    for group in sorted(columns):
        names, grid = stats.correlation_matrix(columns[group], method=method)
        for a, b in combinations(range(len(names)), 2):
            r, n, significance, note = grid[a][b]
            mark = SIGNIFICANCE_MARKS.get(significance, "")
            data.append([group, names[a], names[b], r, n, significance, mark, note or ""])
    return ["group", "row", "column", "r", "n", "significance", "mark", "note"], data


# ---------------------------------------------------------------------------
# figure data

def figure_data(
    rows: Sequence[AuthorTableRow],
    kind: str,
    variables: Sequence[str] | None = None,
    x: str | None = None,
    y: str | None = None,
    order_family: IndicatorName | None = None,
) -> Table:
    """Tabular exports backing the three figure styles.

    boxplot: one row of quartile/whisker fields per (group, variable).
    scatter: (author_id, group, x, y) for the chosen variable pair.
    ordered_dimensions: authors sorted by the impact dimension of the
    chosen family, descending, with the family's P, I, R columns.
    """
    if not rows:
        raise ReportError("no rows")
    if kind == "boxplot":
        variables, _, columns = _group_columns(rows, variables, lambda row: row.group or "")
        header = ["group", "variable", *stats.BoxplotSummary._fields]
        data = []
        for group in sorted(columns):
            for variable in variables:
                values = [v for v in columns[group][variable] if v is not None]
                if not values:
                    continue
                data.append([group, variable, *_statistic(stats.boxplot, values, variable, group)])
        return header, data
    if kind == "scatter":
        if not x or not y:
            raise ReportError("scatter needs x and y variable names")
        header = ["author_id", "group", x, y]
        data = [
            [row.author_id, row.group or "", vx, vy]
            for row, vx, vy in zip(rows, *_columns(rows, (x, y)))
        ]
        return header, data
    if kind == "ordered_dimensions":
        family = order_family or next(iter(rows[0].families), None)
        if family is None:
            raise ReportError("the profiles hold no indicator family to order authors by")
        p_var, order_var, r_var = (variable_name(f, family) for f in FAMILY_FIELDS[:3])
        header = ["author_id", "group", p_var, order_var, r_var]
        order, ps, rs = _columns(rows, (order_var, p_var, r_var))  # order_var first, so a lookup error names it
        defined = [(row, p, i, r) for row, p, i, r in zip(rows, ps, order, rs) if i is not None]
        defined.sort(key=lambda d: (-d[2], d[0].author_id))
        data = [[row.author_id, row.group or "", p, i, r] for row, p, i, r in defined]
        return header, data
    raise ReportError(
        f"unknown figure kind {kind!r}; expected boxplot, scatter or ordered_dimensions"
    )


# ---------------------------------------------------------------------------
# rendering

def fmt3(v: float | None) -> str:
    """Dimensions and ratios: 3 decimals, round half to even."""
    return NA if v is None else f"{round(v, 3):.3f}"


def fmt2(v: float | None) -> str:
    """Correlations: 2 decimals, round half to even."""
    return NA if v is None else f"{round(v, 2):.2f}"


def render_table(
    header: list[str],
    data: list[list],
    fmt: str = "csv",
    formatters: Mapping[str, object] | None = None,
) -> str:
    """Render a generic header+rows table as csv, json or aligned text.

    csv and text show None as NA and a float at 3 decimals, unless
    formatters maps its column to another display formatter (e.g. fmt2
    for correlation columns); json always carries raw values.
    """
    if fmt == "json":
        return _encode_table(header, data, fmt)
    if fmt not in ("csv", "text"):
        raise ReportError(f"unknown format {fmt!r}; expected csv, json or text")
    formatters = formatters or {}

    def show(col: str, v) -> str:
        if v is None:
            return NA
        if isinstance(v, float):
            return formatters.get(col, fmt3)(v)  # type: ignore[operator]
        return str(v)

    shown = ([show(c, v) for c, v in zip(header, row)] for row in data)
    if fmt == "csv":
        return _encode_table(header, shown, fmt)
    cells = [header, *shown]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def author_table_export(rows: Sequence[AuthorTableRow]) -> Table:
    families = list(dict.fromkeys(family for row in rows for family in row.families))  # in first-seen order
    header = ["author_id", "group", *_variable_names(families)]
    data = []
    for row in rows:
        rec: list = [row.author_id, row.group or "", row.papers, row.cites, row.h]
        for family in families:
            rec.extend(row.families.get(family, _NO_CELLS))
        data.append(rec)
    return header, data


CORRELATION_FORMATTERS = {"r": fmt2}


def render_correlation_text(data: list[list], method: str) -> str:
    """Aligned per-group upper-triangular matrices with a/b/c marks.

    data is correlation_report's rows. A group's rows come in row-major
    order, so its variables are its first row's row followed by the
    columns of the rows that share that row.
    """
    lines = []
    for group, cells in groupby(data, itemgetter(0)):
        cells = list(cells)
        first = cells[0][1]
        names = [first, *(column for _, row, column, *_ in cells if row == first)]
        width = max(len(n) for n in names) + 2
        lines.append(f"{group} ({method})")
        lines.append(" " * width + "  ".join(n.rjust(9) for n in names[1:]))
        shown: dict[str, list[str]] = {}  # each row variable's cells, left to right
        for _, row, _, r, _, _, mark, _ in cells:
            cell = NA if r is None else fmt2(r) + (f" ^{mark}" if mark else "")
            shown.setdefault(row, []).append(cell.rjust(9))
        for a, (row, row_cells) in enumerate(shown.items()):
            lines.append("  ".join([row.ljust(width), *[" " * 9] * a, *row_cells]).rstrip())
        lines.append("")
    lines.append("^a significant at the 90% level; ^b 95%; ^c 99%")
    return "\n".join(lines) + "\n"


# a label as SVG text: &, < and > escaped as xml.sax.saxutils.escape does, and each code
# point XML 1.0 cannot hold (the C0 controls but tab, LF and CR; U+FFFE, U+FFFF) as U+FFFD
_SVG_TEXT = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;",
    **dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd"),
})


def render_boxplot_svg(data: list[list]) -> str:
    """Minimal SVG of boxplot summary rows (group, variable, q1..whiskers).

    Built purely from the five summary fields; one horizontal box per
    row, 28 px high, in a 640 px wide image. Labels are escaped through
    _SVG_TEXT, so drawing one imports no xml module.
    """
    if not data:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"></svg>'
    lo = min(row[5] for row in data)
    hi = max(row[6] for row in data)
    span = (hi - lo) or 1.0
    width, row_height, label_w = 640, 28, 220
    plot_w = width - label_w - 20

    def sx(v: float) -> float:
        return label_w + (v - lo) / span * plot_w

    def line(x1: float, y1: float, x2: float, y2: float, extra: str = "") -> str:
        return f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"{extra}/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{row_height * len(data) + 20}" font-family="monospace" font-size="11">'
    ]
    for idx, (group, variable, q1, q2, q3, wlo, whi) in enumerate(data):
        cy = 10 + idx * row_height + row_height / 2
        top = cy - row_height * 0.3
        bot = cy + row_height * 0.3
        parts.append(f'<text x="4" y="{cy + 4:.1f}">{f"{group} {variable}".translate(_SVG_TEXT)}</text>')
        parts.append(line(sx(wlo), cy, sx(q1), cy))  # the whiskers
        parts.append(line(sx(q3), cy, sx(whi), cy))
        parts.extend(line(sx(wx), top, sx(wx), bot) for wx in (wlo, whi))  # their caps
        parts.append(
            f'<rect x="{sx(q1):.1f}" y="{top:.1f}" width="{max(sx(q3) - sx(q1), 0.5):.1f}" '
            f'height="{bot - top:.1f}" fill="none" stroke="black"/>'
        )
        parts.append(line(sx(q2), top, sx(q2), bot, ' stroke-width="2"'))  # the median
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
