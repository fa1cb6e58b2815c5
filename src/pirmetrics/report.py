"""Assembly of per-author rows, grouped summaries, correlations and
figure-data exports, plus their csv/json/text renderings.

Variable naming used throughout reports and the command line:
    papers, cites, h                       supplied scalar counters
    p_<fam>, i_<fam>, r_<fam>              dimensions for one family
    pi_<fam>, pr_<fam>, ir_<fam>, pi2r_<fam>   the four ratios

Family suffixes are the family name lowercased, so the canonical
profiles.csv header is

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
from collections.abc import Callable, Mapping, Sequence
from itertools import combinations, groupby
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import stats
from .io import (
    ScalarMetrics, _encode_table, _FieldError, _located, _parse_count, _parse_float, _rows, _text, save_text,
)
from .model import SJR, SNIP, IndicatorName, IndicatorProfile

NA = "NA"

Table = tuple[list[str], list[list]]  # a report: its header, and one list of raw cells per row

FAMILY_FIELDS = ("p", "i", "r", "pi", "pr", "ir", "pi2r")
_NO_CELLS = (None,) * len(FAMILY_FIELDS)  # the cells of a family a row lacks
SCALAR_FIELDS = ("papers", "cites", "h")


class ReportError(ValueError):
    """Invalid input to a report assembly."""


class GroupError(ReportError):
    """Rows whose groups cannot carry the requested grouped statistics."""


class DimensionCells(NamedTuple):
    """The seven per-family cells of an author row, in FAMILY_FIELDS order."""

    p: float | None
    i: float | None
    r: float | None
    pi: float | None
    pr: float | None
    ir: float | None
    pi2r: float | None

    @classmethod
    def from_profile(cls, profile: IndicatorProfile) -> "DimensionCells":
        return cls(
            p=profile.p,
            i=profile.i,
            r=profile.r,
            pi=profile.p_over_i,
            pr=profile.p_over_r,
            ir=profile.i_over_r,
            pi2r=profile.pi_over_2r,
        )


class AuthorTableRow(NamedTuple):
    """One author's scalar counters plus per-family dimensions and ratios."""

    author_id: str
    group: str | None
    papers: int | None
    cites: int | None
    h: int | None
    families: Mapping[IndicatorName, DimensionCells]

    def value(self, variable: str) -> float | None:
        """Look a report variable up by name (e.g. 'h' or 'pi_sjr')."""
        if variable in SCALAR_FIELDS:
            v = getattr(self, variable)
            return None if v is None else float(v)
        fieldname, _, suffix = variable.partition("_")
        if fieldname in FAMILY_FIELDS and suffix:
            for family, cells in self.families.items():
                if family.lower() == suffix:
                    return getattr(cells, fieldname)
        raise ReportError(
            f"unknown variable {variable!r}; available: {', '.join(_variable_names(self))}"
        )


def _variable_names(row: AuthorTableRow) -> list[str]:
    """All variable names defined by a row, scalar counters first."""
    names = list(SCALAR_FIELDS)
    for family in row.families:
        names.extend(f"{f}_{family.lower()}" for f in FAMILY_FIELDS)
    return names


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
    # (parse, position, name) of every scalar and family cell, and where each
    # family's seven cells start in it; both worked out once, from the header
    layout: list[tuple[Callable, int | None, str]] = []
    families: list[tuple[IndicatorName, int]] = []

    def every_column(header: list[str]) -> list[str]:
        """author_id and group, then the whole header; layout gives the cells' positions."""
        position = {col: i for i, col in enumerate(header, start=2)}
        suffixes: list[str] = []
        for col in header:
            fieldname, _, suffix = col.partition("_")
            if fieldname in FAMILY_FIELDS and suffix and suffix not in suffixes:
                suffixes.append(suffix)
        layout.extend((_parse_count, position.get(name), name) for name in SCALAR_FIELDS)
        for suffix in suffixes:
            families.append((_canonical_family(suffix), len(layout)))
            layout.extend((_parse_float, position.get(f"{f}_{suffix}"), f"{f}_{suffix}") for f in FAMILY_FIELDS)
        return ["author_id", "group", *header]

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
                    families={family: DimensionCells(*cells[k:k + 7]) for family, k in families},
                )
            )
    except _FieldError as exc:
        raise _located(exc, "profiles", fmt, lineno) from None
    return rows


def _canonical_family(suffix: str) -> IndicatorName:
    if suffix == SJR.lower():
        return SJR
    if suffix == SNIP.lower():
        return SNIP
    return suffix


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

def _column(rows: Sequence[AuthorTableRow], variable: str) -> list[float | None]:
    """Every row's value of a variable, as AuthorTableRow.value gives it.

    The variable is matched to its scalar field, or to its family and
    field, once, against the first row; a row without that family falls
    back to AuthorTableRow.value.
    """
    first = rows[0]
    if variable in SCALAR_FIELDS:
        return [None if v is None else float(v) for v in map(attrgetter(variable), rows)]
    fieldname, _, suffix = variable.partition("_")
    family = None
    if fieldname in FAMILY_FIELDS and suffix:
        family = next((f for f in first.families if f.lower() == suffix), None)
    if family is None:
        first.value(variable)  # raises the unknown-variable error
    get = attrgetter(fieldname)
    return [
        row.value(variable) if (cells := row.families.get(family)) is None else get(cells)
        for row in rows
    ]


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
    variables = list(dict.fromkeys(variables)) if variables else _variable_names(rows[0])
    members: dict[str | None, list[int]] = {}
    for index, row in enumerate(rows):
        members.setdefault(group_of(row), []).append(index)
    pooled = {
        variable: [v if v is not None and math.isfinite(v) else None for v in _column(rows, variable)]
        for variable in variables
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
            data.append([group, variable, *stats.describe(values), len(column) - len(values)])
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
    family's value, (a - b) / b.
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
        pooled[variable] = summary = stats.describe(values)
        grouped = {g: vals for g in group_names if (vals := [v for v in columns[g][variable] if v is not None])}
        terms = stats.variance_decomposition(stats.GroupedSample(grouped)) if len(grouped) >= 2 else (None,) * 4
        aggregate.append([variable, *summary, *terms])

    deltas = []
    for ratio in ("pi", "pr", "ir", "pi2r"):
        for fam_a, fam_b in combinations(rows[0].families, 2):
            a = pooled.get(f"{ratio}_{fam_a.lower()}")
            b = pooled.get(f"{ratio}_{fam_b.lower()}")
            if a and b and b.median != 0 and b.mean != 0:
                deltas.append([
                    ratio, fam_a, fam_b,
                    100.0 * ((a.median - b.median) / b.median),
                    100.0 * ((a.mean - b.mean) / b.mean),
                ])
    return (
        (["variable", *SUMMARY_COLUMNS, "within_ss", "between_ss", "total_ss", "pct_reduction"], aggregate),
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
        header = ["group", "variable", "q1", "q2", "q3", "whisker_low", "whisker_high"]
        data = []
        for group in sorted(columns):
            for variable in variables:
                values = [v for v in columns[group][variable] if v is not None]
                if not values:
                    continue
                data.append([group, variable, *stats.boxplot(values)])
        return header, data
    if kind == "scatter":
        if not x or not y:
            raise ReportError("scatter needs x and y variable names")
        header = ["author_id", "group", x, y]
        data = [
            [row.author_id, row.group or "", vx, vy]
            for row, vx, vy in zip(rows, _column(rows, x), _column(rows, y))
        ]
        return header, data
    if kind == "ordered_dimensions":
        family = order_family or next(iter(rows[0].families), None)
        if family is None:
            raise ReportError("the profiles hold no indicator family to order authors by")
        suffix = family.lower()
        order_var = f"i_{suffix}"
        header = ["author_id", "group", f"p_{suffix}", order_var, f"r_{suffix}"]
        order = _column(rows, order_var)  # first, so a lookup error names order_var
        defined = [
            (row, p, i, r)
            for row, p, i, r in zip(rows, _column(rows, f"p_{suffix}"), order, _column(rows, f"r_{suffix}"))
            if i is not None
        ]
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
    families: list[IndicatorName] = []
    for row in rows:
        for family in row.families:
            if family not in families:
                families.append(family)
    header = ["author_id", "group", "papers", "cites", "h"]
    header.extend(f"{f}_{family.lower()}" for family in families for f in FAMILY_FIELDS)
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


def render_boxplot_svg(data: list[list]) -> str:
    """Minimal SVG of boxplot summary rows (group, variable, q1..whiskers).

    Built purely from the five summary fields; one horizontal box per
    row, 28 px high, in a 640 px wide image.
    """
    # imported here, as xml.sax.saxutils pulls in urllib.request (~30 ms)
    from xml.sax.saxutils import escape

    if not data:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"></svg>'
    lo = min(row[5] for row in data)
    hi = max(row[6] for row in data)
    span = (hi - lo) or 1.0
    width, row_height, label_w = 640, 28, 220
    plot_w = width - label_w - 20

    def sx(v: float) -> float:
        return label_w + (v - lo) / span * plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{row_height * len(data) + 20}" font-family="monospace" font-size="11">'
    ]
    for idx, (group, variable, q1, q2, q3, wlo, whi) in enumerate(data):
        cy = 10 + idx * row_height + row_height / 2
        top = cy - row_height * 0.3
        bot = cy + row_height * 0.3
        parts.append(f'<text x="4" y="{cy + 4:.1f}">{escape(f"{group} {variable}")}</text>')
        parts.append(
            f'<line x1="{sx(wlo):.1f}" y1="{cy:.1f}" x2="{sx(q1):.1f}" y2="{cy:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{sx(q3):.1f}" y1="{cy:.1f}" x2="{sx(whi):.1f}" y2="{cy:.1f}" stroke="black"/>'
        )
        for wx in (wlo, whi):
            parts.append(
                f'<line x1="{sx(wx):.1f}" y1="{top:.1f}" x2="{sx(wx):.1f}" y2="{bot:.1f}" stroke="black"/>'
            )
        parts.append(
            f'<rect x="{sx(q1):.1f}" y="{top:.1f}" width="{max(sx(q3) - sx(q1), 0.5):.1f}" '
            f'height="{bot - top:.1f}" fill="none" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{sx(q2):.1f}" y1="{top:.1f}" x2="{sx(q2):.1f}" y2="{bot:.1f}" stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
