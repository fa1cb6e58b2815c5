"""Work grows linearly with the width of a header or a family list.

Each test times one input at width N and one at width 4N, taking the best
of a few runs of each. Linear growth gives a ratio of about 4, quadratic
growth about 16, so a ratio under 8 passes. Each input also has enough
rows that the small one takes milliseconds, not microseconds.
"""

import gc
import io
import math
import time

import pytest

from pirmetrics.io import load_events, load_impact_table, load_scalars
from pirmetrics.model import FAMILY_FIELDS, DimensionCells, variable_name
from pirmetrics.report import AuthorTableRow, figure_data, group_summary, load_profiles

RUNS = 5
BOUND = 8.0


def _best(run, value) -> float:
    gc.collect()
    best = math.inf
    for _ in range(RUNS):
        start = time.perf_counter()
        run(value)
        best = min(best, time.perf_counter() - start)
    return best


def _ratio(build, run, width: int) -> float:
    small, large = build(width), build(4 * width)
    return _best(run, large) / _best(run, small)


def _csv(columns, row, width: int, rows: int = 40) -> str:
    """A csv of the given columns and width extra ones; row i holds row(i)'s cells, then a 0 per extra column."""
    header = [*columns, *(f"extra{k}" for k in range(width))]
    lines = [header, *([*row(i), *["0"] * width] for i in range(rows))]
    return "".join(",".join(line) + "\n" for line in lines)


def _profiles_csv(families: int, rows: int = 2) -> str:
    names = [f"f{k}" for k in range(families)]
    header = ["author_id", "group", "papers", "cites", "h", *(variable_name(f, n) for n in names for f in FAMILY_FIELDS)]
    lines = [header, *([f"a{i}", "G", "1", "2", "1", *["1.5"] * (len(header) - 5)] for i in range(rows))]
    return "".join(",".join(line) + "\n" for line in lines)


def _rows(families: int) -> list[AuthorTableRow]:
    cells = DimensionCells(*[1.5] * len(FAMILY_FIELDS))
    return [AuthorTableRow("a", "G", 1, 2, 1, {f"f{k}": cells for k in range(families)})]


@pytest.mark.parametrize(
    "loader, columns, row",
    [
        (load_events, ["author_id", "group", "kind", "journal", "year", "count"],
         lambda i: ["a", "G", "publication", "J1", "2010", "1"]),
        (load_impact_table, ["journal", "year", "indicator", "value"], lambda i: [f"J{i}", "2010", "SJR", "1.5"]),
        (load_scalars, ["author_id", "papers", "cites", "h"], lambda i: [f"a{i}", "3", "4", "1"]),
    ],
    ids=["events", "impacts", "scalars"],
)
def test_csv_loader_linear_in_header_width(loader, columns, row):
    ratio = _ratio(lambda width: _csv(columns, row, width), lambda text: loader(io.StringIO(text)), 2000)
    assert ratio < BOUND, f"2000 -> 8000 extra columns took {ratio:.1f}x as long"


def test_profiles_loader_linear_in_families():
    ratio = _ratio(_profiles_csv, lambda text: load_profiles(io.StringIO(text)), 250)
    assert ratio < BOUND, f"250 -> 1000 families ({7 * 250} -> {7 * 1000} family columns) took {ratio:.1f}x as long"


@pytest.mark.parametrize(
    "build",
    [group_summary, lambda rows: figure_data(rows, "boxplot")],
    ids=["group_summary", "figure_data-boxplot"],
)
def test_report_linear_in_families(build):
    ratio = _ratio(_rows, build, 400)
    assert ratio < BOUND, f"400 -> 1600 families took {ratio:.1f}x as long"
