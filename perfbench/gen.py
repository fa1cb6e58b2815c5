"""Seeded generator of synthetic pirmetrics inputs.

A shape fixes every size (authors, event rows per author, groups,
journals, impact years, coverage); the seed only chooses which journal,
year, kind and count each row gets, so every seed gives the same amount
of work and the same seed gives byte-identical files.

Journal popularity follows a Zipf-like law, so popular (journal, year)
pairs repeat within an author and their counts merge in the engine.
Every author has at least one in-window publication, and the scalars
file carries each author's in-window publication total as its paper
count, as `io.assemble_dataset` expects.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

KINDS = ("publication", "citation", "reference")
KIND_WEIGHTS = (1, 5, 5)
FAMILIES = ("SJR", "SNIP")
FIRST_YEAR = 2002
WINDOW = (2009, 2013)


@dataclass(frozen=True)
class Shape:
    authors: int
    rows_per_author: int
    groups: int
    journals: int
    years: int
    coverage: float
    skew: float = 1.1


@dataclass
class Inputs:
    """Generated rows, kept in memory for the benchmark's own checks."""

    events: list  # (author_id, group, kind, journal, year, count)
    impacts: dict  # (journal, year, family) -> value
    scalars: dict  # author_id -> (papers, cites, h)


def _year_ranges(years: int) -> dict:
    last = FIRST_YEAR + years - 1
    return {
        # a few publications fall either side of the window
        "publication": (WINDOW[0] - 2, WINDOW[1] + 2),
        # citations arrive from the window onwards, references point back
        "citation": (WINDOW[0], last),
        "reference": (FIRST_YEAR, WINDOW[1]),
    }


def journal_name(index: int) -> str:
    # every seventh name carries a comma, so csv quoting is exercised
    if index % 7 == 0:
        return f"Annals {index:04d}, Series B"
    return f"Journal {index:04d}"


def generate(shape: Shape, seed: int) -> Inputs:
    rng = random.Random(seed)
    journals = [journal_name(i) for i in range(shape.journals)]
    cum = list(accumulate(1.0 / (rank + 1) ** shape.skew for rank in range(shape.journals)))
    rng.shuffle(journals)  # popularity rank is independent of the name

    impacts = {}
    for journal in journals:
        base = rng.lognormvariate(0.0, 0.6)
        snip_factor = rng.uniform(0.7, 1.3)
        for offset in range(shape.years):
            year = FIRST_YEAR + offset
            drift = 1.0 + 0.02 * offset
            for family, factor in (("SJR", 1.0), ("SNIP", snip_factor)):
                if rng.random() < shape.coverage:
                    value = base * factor * drift * rng.uniform(0.9, 1.1)
                    impacts[(journal, year, family)] = round(value, 3)

    ranges = _year_ranges(shape.years)
    kind_cum = list(accumulate(KIND_WEIGHTS))
    events = []
    scalars = {}
    for a in range(shape.authors):
        author_id = f"Author {a:05d}, {chr(65 + a % 26)}."
        group = f"G{a % shape.groups}"
        n = shape.rows_per_author
        kinds = rng.choices(KINDS, cum_weights=kind_cum, k=n)
        kinds[0] = "publication"
        picked = rng.choices(journals, cum_weights=cum, k=n)
        papers = cites = 0
        for i, (kind, journal) in enumerate(zip(kinds, picked)):
            lo, hi = ranges[kind]
            year = rng.randint(*WINDOW) if i == 0 else rng.randint(lo, hi)
            count = rng.randint(1, 3) if kind == "publication" else rng.randint(1, 9)
            events.append((author_id, group, kind, journal, year, count))
            if kind == "publication" and WINDOW[0] <= year <= WINDOW[1]:
                papers += count
            elif kind == "citation":
                cites += count
        h = min(papers, cites, int(cites ** 0.5))
        scalars[author_id] = (papers, cites, h)
    return Inputs(events, impacts, scalars)


EVENT_COLUMNS = ["author_id", "group", "kind", "journal", "year", "count"]
IMPACT_COLUMNS = ["journal", "year", "indicator", "value"]
SCALAR_COLUMNS = ["author_id", "papers", "cites", "h"]


def _write(path: Path, columns: list, rows, fmt: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        if fmt == "csv":
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            json.dump([dict(zip(columns, row)) for row in rows], f, ensure_ascii=False)
            f.write("\n")


def write_inputs(inputs: Inputs, directory: Path, fmt: str) -> dict:
    """Write events, impacts and scalars; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {role: directory / f"{role}.{fmt}" for role in ("events", "impacts", "scalars")}
    _write(paths["events"], EVENT_COLUMNS, inputs.events, fmt)
    _write(
        paths["impacts"],
        IMPACT_COLUMNS,
        ((j, y, fam, v) for (j, y, fam), v in inputs.impacts.items()),
        fmt,
    )
    _write(
        paths["scalars"],
        SCALAR_COLUMNS,
        ((a, p, c, h) for a, (p, c, h) in inputs.scalars.items()),
        fmt,
    )
    return paths
