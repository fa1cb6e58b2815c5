"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output
is correct. The benchmark counts a command as failed when its exit code
is not 0, when one of its outputs differs from the same output in
another repetition, or when a check below reports a problem for it.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from pathlib import Path

import gen

# Published values for the bundled dataset, at the tolerances the
# acceptance suite uses (tests/reference_values.py).
GOLDEN_AUTHOR = "Bocci, A."
GOLDEN_CELLS = {"p_sjr": (2.817, 0.001), "pi_sjr": (1.455, 0.002)}
PCT_REDUCTION = {"pi_sjr": (0.763, 0.005), "pi_snip": (0.803, 0.005)}

FAMILIES = ("SJR", "SNIP")
BRUTE_FORCE_SAMPLE = 25


def read_table(path: Path) -> list[dict]:
    """Rows of a csv or json report as dicts (csv cells stay strings)."""
    with open(path, encoding="utf-8", newline="") as f:
        if path.suffix == ".json":
            return json.load(f)
        return list(csv.DictReader(f))


def cell(raw) -> float | None:
    """A csv cell ('NA' for undefined) or a json value, as a float."""
    if raw is None or raw == "NA":
        return None
    return float(raw)


def _near(got, want, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def fixture_profiles(path: Path) -> list[str]:
    rows = [r for r in read_table(path) if r["author_id"] == GOLDEN_AUTHOR]
    if len(rows) != 1:
        return [f"{path.name}: expected one row for {GOLDEN_AUTHOR!r}, found {len(rows)}"]
    return [
        f"{path.name}: {column} is {rows[0][column]}, published {want}"
        for column, (want, tol) in GOLDEN_CELLS.items()
        if not _near(cell(rows[0][column]), want, tol)
    ]


def fixture_aggregate(path: Path) -> list[str]:
    rows = {r["variable"]: r for r in read_table(path)}
    problems = []
    for variable, (want, tol) in PCT_REDUCTION.items():
        got = cell(rows[variable]["pct_reduction"]) if variable in rows else None
        if not _near(got, want, tol):
            problems.append(f"{path.name}: {variable} pct_reduction is {got}, published {want}")
    return problems


def aggregate_counts(path: Path, authors: int) -> list[str]:
    """Every author has supplied counters, so the pooled n of papers is all of them."""
    rows = {r["variable"]: r for r in read_table(path)}
    n = rows.get("papers", {}).get("n")
    if n is None or int(n) != authors:
        return [f"{path.name}: pooled papers n is {n}, expected {authors}"]
    return []


def _import_program(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from pirmetrics import engine, io, model, report

    return engine, io, model, report


def expected_profiles(src: Path, inputs: gen.Inputs, missing: str, window_policy: str, fmt: str) -> str:
    """The profiles file an in-process engine run renders for the same inputs.

    Corpora, impact table and scalars are built from the generated rows,
    not read back from the files, so the CLI's ingest is checked too.
    """
    engine, io, model, report = _import_program(src)
    events: dict[str, list] = {}
    groups: dict[str, str] = {}
    for author, group, kind, journal, year, count in inputs.events:
        events.setdefault(author, []).append(
            model.Event(model.EventKind(kind), journal, year, count)
        )
        groups[author] = group
    corpora = [model.AuthorCorpus(a, tuple(evs), group=groups[a]) for a, evs in events.items()]
    table = model.ImpactTable((j, y, fam, v) for (j, y, fam), v in inputs.impacts.items())
    scalars = {a: io.ScalarMetrics(a, *counts) for a, counts in inputs.scalars.items()}
    window = model.YearWindow(*gen.WINDOW)
    profiles = {
        family: engine.compute_profiles(
            corpora,
            table,
            family,
            window,
            engine.MissingValuePolicy.parse(missing),
            engine.WindowPolicy.parse(window_policy),
        )
        for family in FAMILIES
    }
    header, data = report.author_table_export(report.author_table(profiles, scalars, groups))
    return report.render_table(header, data, fmt)


def brute_force_dimensions(
    events: list, impacts: dict, family: str, nearest: int, open_references: bool
) -> dict:
    """P, I, R and the four ratios of one author's events, by direct weighted means."""
    dims = {}
    for kind, name in (("publication", "p"), ("citation", "i"), ("reference", "r")):
        counts: dict[tuple, int] = {}
        for _, _, k, journal, year, count in events:
            in_window = gen.WINDOW[0] <= year <= gen.WINDOW[1]
            if k == kind and (in_window or (open_references and k != "publication")):
                counts[(journal, year)] = counts.get((journal, year), 0) + count
        weighted = matched = 0.0
        for (journal, year), count in counts.items():
            value = impacts.get((journal, year, family))
            for distance in range(1, nearest + 1):
                if value is not None:
                    break
                value = impacts.get((journal, year - distance, family))
                if value is None:
                    value = impacts.get((journal, year + distance, family))
            if value is not None:
                weighted += count * value
                matched += count
        dims[name] = weighted / matched if matched else None
    p, i, r = dims["p"], dims["i"], dims["r"]
    dims["pi"] = p / i if p is not None and i else None
    dims["pr"] = p / r if p is not None and r else None
    dims["ir"] = i / r if i is not None and r else None
    dims["pi2r"] = (p + i) / (2 * r) if p is not None and i is not None and r else None
    return dims


def brute_force_sample(
    path: Path, inputs: gen.Inputs, seed: int, nearest: int, open_references: bool
) -> list[str]:
    """Recompute a seeded sample of authors and compare the rendered cells."""
    rows = {r["author_id"]: r for r in read_table(path)}
    authors = sorted(inputs.scalars)
    sample = random.Random(seed).sample(authors, min(BRUTE_FORCE_SAMPLE, len(authors)))
    events: dict[str, list] = {author: [] for author in sample}
    for event in inputs.events:
        if event[0] in events:
            events[event[0]].append(event)
    problems = []
    for author in sample:
        row = rows.get(author)
        if row is None:
            problems.append(f"{path.name}: no row for {author!r}")
            continue
        if tuple(int(row[c]) for c in ("papers", "cites", "h")) != inputs.scalars[author]:
            problems.append(f"{path.name}: {author!r}: scalar counters differ")
        for family in FAMILIES:
            want = brute_force_dimensions(events[author], inputs.impacts, family, nearest, open_references)
            for field, value in want.items():
                column = f"{field}_{family.lower()}"
                got = cell(row[column])
                # csv cells are rounded to 3 decimals; json carries the raw value
                if path.suffix == ".csv":
                    tol = 5e-4 + 1e-9
                else:
                    tol = 1e-9 * max(1.0, abs(value or 0.0))
                if not _near(got, value, tol):
                    problems.append(f"{path.name}: {author!r} {column} is {got}, expected {value}")
    return problems
