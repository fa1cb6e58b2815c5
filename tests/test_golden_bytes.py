"""Golden bytes: the sha256 of every file every command writes, on fixed inputs.

The digests live in golden_bytes.json. A change that must keep every
output byte leaves this test passing unchanged; a change that means to
alter an output rewrites the digests of the files it alters, and only those.
"""

import csv
import hashlib
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from pirmetrics.cli import main
from pirmetrics.data import fixture_path

EVENTS = str(fixture_path("author_events.csv"))
IMPACTS = str(fixture_path("impact_table.csv"))
SCALARS = str(fixture_path("scalars.csv"))
PROFILES = str(fixture_path("profiles.csv"))


def run(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def write_table(path: Path, records: list[dict]) -> str:
    """Write records as csv or json, by the path's suffix; return the path."""
    if path.suffix == ".json":
        path.write_text(json.dumps(records), encoding="utf-8")
    else:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(records[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
    return str(path)


def generated_inputs(root: Path, seed: int, authors: int, events_per_author: int, groups: int, fmt: str) -> dict:
    """Tiny seeded events, impacts and two scalars files, written as csv or json.

    The impact table leaves about one (journal, year) pair in five without
    a value, so the drop and nearest policies both have gaps to handle.
    scalars holds every author's counters; alt_scalars gives every other
    author other counters, so a report command's --scalars changes its rows.
    """
    rnd = random.Random(seed)
    journals = [f"Journal {k}" for k in range(9)]
    years = range(2005, 2017)
    impacts = [
        {"journal": j, "year": y, "indicator": family, "value": round(rnd.uniform(0.1, 3.5), 3)}
        for family in ("SJR", "SNIP") for j in journals for y in years if rnd.random() < 0.8
    ]
    events, scalars, alt_scalars = [], [], []
    for a in range(authors):
        author, group = f"Author {a:03d}", f"G{a % groups}"
        # one event of each kind in the 2009:2013 window, then any kind in any year
        for kind in ("publication", "citation", "reference"):
            events.append({"author_id": author, "group": group, "kind": kind,
                           "journal": rnd.choice(journals), "year": rnd.randint(2009, 2013), "count": rnd.randint(1, 6)})
        for _ in range(events_per_author - 3):
            events.append({"author_id": author, "group": group,
                           "kind": rnd.choice(("publication", "citation", "citation", "reference", "reference")),
                           "journal": rnd.choice(journals), "year": rnd.choice(years), "count": rnd.randint(1, 9)})
        for target in (scalars, alt_scalars) if a % 2 else (scalars,):
            papers, cites = rnd.randint(1, 80), rnd.randint(0, 2000)
            target.append({"author_id": author, "papers": papers, "cites": cites, "h": rnd.randint(0, min(papers, cites))})
    root.mkdir(parents=True, exist_ok=True)
    tables = {"events": events, "impacts": impacts, "scalars": scalars, "alt_scalars": alt_scalars}
    return {role: write_table(root / f"{role}.{fmt}", records) for role, records in tables.items()}


class TestGoldenBytes:
    """Each case runs compute, summarize, correlate --method pearson and
    spearman, and report --kind boxplot --kind scatter --kind ordered
    --svg in one output format, with or without --scalars. The inputs are
    the bundled fixtures, and tiny seeded inputs shaped like the
    benchmark's deep-streams (few authors, long csv event streams) and
    many-authors-json (many authors, short json streams); the nearest
    cases add --missing nearest:2 --window-policy open-references.

    The digests live in golden_bytes.json, keyed "<inputs>-<format>-<scalars|bare>".
    """

    GOLDEN = json.loads((Path(__file__).parent / "golden_bytes.json").read_text(encoding="utf-8"))
    CASES = [
        (inputs, fmt, scalars)
        for inputs in ("fixtures", "deep", "wide")
        for fmt in ("csv", "json", "text")
        for scalars in (True, False)
    ] + [("nearest", fmt, True) for fmt in ("csv", "json", "text")]

    @staticmethod
    def sources(tmp_path: Path, inputs: str) -> dict:
        if inputs == "fixtures":
            return {"events": EVENTS, "impacts": IMPACTS, "scalars": SCALARS, "alt_scalars": SCALARS}
        if inputs == "wide":
            return generated_inputs(tmp_path / "in", 12, authors=48, events_per_author=5, groups=4, fmt="json")
        return generated_inputs(tmp_path / "in", 11, authors=18, events_per_author=40, groups=3, fmt="csv")

    @staticmethod
    def digests(out: Path) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

    @classmethod
    def run_case(cls, runner, tmp_path: Path, inputs: str, fmt: str, scalars: bool) -> dict:
        src = cls.sources(tmp_path, inputs)
        out = tmp_path / "out"
        policy = ["--missing", "nearest:2", "--window-policy", "open-references"] if inputs == "nearest" else []
        with_scalars = ["--scalars", src["scalars"]] if scalars else []
        run(runner, "compute", "--events", src["events"], "--impacts", src["impacts"], *with_scalars, *policy,
            "--format", fmt, "--out", str(out), "--name", "c")
        if inputs == "fixtures":
            profiles = PROFILES
        elif inputs == "nearest":
            profiles = str(out / f"c.profiles.{'json' if fmt == 'json' else 'csv'}")
        else:
            # profiles that carry every author's counters, so each report command reads them either way
            profile_fmt = Path(src["events"]).suffix[1:]
            run(runner, "compute", "--events", src["events"], "--impacts", src["impacts"], "--scalars", src["scalars"],
                "--format", profile_fmt, "--out", str(tmp_path / "profiles"), "--name", "p")
            profiles = str(tmp_path / "profiles" / f"p.profiles.{profile_fmt}")
        table = ["--profiles", profiles, "--format", fmt, "--out", str(out), "--name", "r"]
        if scalars and inputs != "nearest":
            table += ["--scalars", src["alt_scalars"]]
        run(runner, "summarize", *table)
        for method in ("pearson", "spearman"):
            run(runner, "correlate", *table, "--method", method)
        run(runner, "report", *table, "--kind", "boxplot", "--kind", "scatter", "--kind", "ordered", "--svg",
            "--x", "p_sjr", "--y", "pi_snip")
        return cls.digests(out)

    @pytest.mark.parametrize(
        "inputs, fmt, scalars", CASES, ids=[f"{i}-{f}-{'scalars' if s else 'bare'}" for i, f, s in CASES]
    )
    def test_every_written_file(self, tmp_path, inputs, fmt, scalars):
        key = f"{inputs}-{fmt}-{'scalars' if scalars else 'bare'}"
        assert self.run_case(CliRunner(), tmp_path, inputs, fmt, scalars) == self.GOLDEN[key]
