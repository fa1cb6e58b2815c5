"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Each run copies the program's sources into a temporary root, so a test
can break its copy and check that the benchmark counts the failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

REPO = Path(__file__).resolve().parent.parent
TINY = gen.Shape(authors=24, rows_per_author=30, groups=2, journals=40, years=16, coverage=0.8)


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], shape=TINY)


def program_copy(root: Path, edit: tuple[str, str] | None = None) -> Path:
    shutil.copytree(REPO / "src" / "pirmetrics", root / "src" / "pirmetrics")
    if edit is not None:
        cli = root / "src" / "pirmetrics" / "cli.py"
        text = cli.read_text(encoding="utf-8")
        old, new = edit
        assert text.count(old) == 1, f"mutation target not unique: {old!r}"
        cli.write_text(text.replace(old, new), encoding="utf-8")
    return root


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generator_is_deterministic_per_seed(tmp_path, fmt):
    def files(seed, name):
        paths = gen.write_inputs(gen.generate(TINY, seed), tmp_path / name, fmt)
        return {role: p.read_bytes() for role, p in paths.items()}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a")["events"] != files(4, "c")["events"]


def test_scalars_match_in_window_publications():
    inputs = gen.generate(TINY, 5)
    papers = {}
    for author, _, kind, _, year, count in inputs.events:
        if kind == "publication" and gen.WINDOW[0] <= year <= gen.WINDOW[1]:
            papers[author] = papers.get(author, 0) + count
    assert {a: s[0] for a, s in inputs.scalars.items()} == papers
    assert all(0 <= h <= min(p, c) for p, c, h in inputs.scalars.values())


@pytest.mark.parametrize("name", ["fixtures", "deep-streams", "many-authors-json"])
def test_tiny_run_is_correct(tmp_path, name):
    workload = run.WORKLOADS[name] if name == "fixtures" else tiny(name)
    result = run.run(program_copy(tmp_path), workload, seed=7, seconds=0, trace=False)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == len(run.COMMANDS)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path):
    result = run.run(program_copy(tmp_path), tiny("many-authors-json"), seed=7, seconds=0, trace=True)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    trace = json.loads((tmp_path / ".perfbench_work" / "many-authors-json" / "trace.json").read_text())
    assert "stats.variance_decomposition" in trace["self_time_s"]["summarize"]
    names = {span[0] for chain in trace["spans"] for spans in chain.values() for span in spans}
    assert {"import", "io.load_events", "engine.compute_profiles.sjr", "report.aggregate_report"} <= names


def test_corrupted_output_counts_as_failed(tmp_path):
    target = '"profiles", rpt.render_table(header, data, fmt)'
    root = program_copy(tmp_path, (target, target + '.replace("1", "2", 1)'))
    result = run.run(root, tiny("deep-streams"), seed=7, seconds=0, trace=False)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_nonzero_exit_counts_as_failed(tmp_path):
    doc = '    """Group summaries, pooled statistics and variance decomposition."""\n'
    root = program_copy(tmp_path, (doc, doc + '    raise _fail("deliberate", EXIT_INPUT)\n'))
    result = run.run(root, run.WORKLOADS["fixtures"], seed=7, seconds=0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_brute_force_check_flags_a_wrong_cell(tmp_path):
    inputs = gen.generate(TINY, 9)
    src = REPO / "src"
    text = checks.expected_profiles(src, inputs, "drop", "strict", "csv")
    path = tmp_path / "bench.profiles.csv"
    path.write_text(text, encoding="utf-8")
    assert checks.brute_force_sample(path, inputs, 9, 0, False) == []

    rows = checks.read_table(path)
    victim = next(r for r in rows if r["p_sjr"] != "NA")
    victim["p_sjr"] = f"{float(victim['p_sjr']) + 0.002:.3f}"
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    # the sample covers every author of the tiny shape
    assert any("p_sjr" in p for p in checks.brute_force_sample(path, inputs, 9, 0, False))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
