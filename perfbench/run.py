"""pirmetrics benchmark: cold CLI pipeline time on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from `src` as
`python -m pirmetrics.cli`, one cold process per command, one command
at a time (a closed loop with a single client and no concurrency).
Inputs are generated from the seed under `.perfbench_work/`, which is
removed and made again on every run.

--trace 0 measures the end-to-end metrics: for about S seconds it
repeats a setup sample (a cold interpreter that only imports
`pirmetrics.cli`) and a compute -> summarize -> correlate -> report
chain, and reports medians of calibrated times (see
REFERENCE_CALIBRATION_S). Every sample is written to
`.perfbench_work/<workload>/samples.json`.

--trace 1 measures the per-layer metrics, unscaled: the import time of
each module in a fresh process, then untraced and traced chains in turn.
A traced command runs `trace_cli.py`, which records spans around the
calls into each layer; spans and a self-time table are written to
`.perfbench_work/<workload>/trace.json`, and the table goes to stderr.

Every run checks the outputs (see checks.py). The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it show each metric with its unit and
sample count, and `failed_ratio`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

COMMANDS = ("compute", "summarize", "correlate", "report")
# which command writes each report file, by the report part of its name
REPORT_OWNER = {
    "profiles": "compute",
    "groups": "summarize",
    "aggregate": "summarize",
    "deltas": "summarize",
    "pearson": "correlate",
    "spearman": "correlate",
    "boxplot": "report",
    "ordered": "report",
}
MODULES = ("stats", "report", "io", "engine", "model", "cli")
DATASET = "bench"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 150.0

# Other tenants of a shared host slow every process by up to tens of
# percent, for seconds to minutes at a time. So calibrate.py, fixed work
# that runs none of the program's code, is timed as a cold process right
# before every measured process, and each end-to-end time is that
# process's wall time times REFERENCE_CALIBRATION_S / the calibration
# time. On a 2-CPU Intel Xeon host this halved the run-to-run spread of
# most metrics. The reference is a typical calibration time on that host,
# so scaled times read as seconds there; unscaled medians are printed too.
REFERENCE_CALIBRATION_S = 0.25

# Imports one module with the package's __init__ bypassed, so the time
# covers that module and what it imports, and nothing else.
IMPORT_ONE = """\
import importlib, sys, time, types
package = types.ModuleType("pirmetrics")
package.__path__ = [sys.argv[1]]
sys.modules["pirmetrics"] = package
start = time.perf_counter()
importlib.import_module("pirmetrics." + sys.argv[2])
print(time.perf_counter() - start)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape | None  # None: the bundled fixtures
    fmt: str
    missing: str = "drop"
    window_policy: str = "strict"
    correlate_flags: tuple = ()
    report_flags: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixtures",
            None,
            "csv",
            correlate_flags=("--method", "spearman", "--format", "text"),
            report_flags=("--kind", "boxplot", "--kind", "ordered", "--svg"),
        ),
        Workload("deep-streams", gen.Shape(500, 250, 4, 2000, 16, 0.9), "csv"),
        Workload(
            "many-authors-json",
            gen.Shape(1800, 40, 4, 2000, 16, 0.7),
            "json",
            missing="nearest:2",
            window_policy="open-references",
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "compute_s": "s",
    "summarize_s": "s",
    "correlate_s": "s",
    "report_s": "s",
    "pipeline_s": "s",
    "events_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

# per-layer times summed from the spans of the same name in a traced chain
SPAN_TIMES = (
    "io.load_events_s",
    "io.load_impact_table_s",
    "io.load_scalars_s",
    "engine.compute_profiles.sjr_s",
    "engine.compute_profiles.snip_s",
    "report.author_table_s",
    "report.render_table_s",
    "report.load_profiles_s",
    "report.group_summary_s",
    "report.aggregate_report_s",
    "report.correlation_report_s",
    "report.figure_data_s",
    "stats.describe_s",
    "stats.variance_decomposition_s",
    "stats.correlation_matrix_s",
)

PER_LAYER = {
    **{f"{m}.import_s": "s" for m in MODULES},
    **{name: "s" for name in SPAN_TIMES},
    "io.load_events_rows": "rows",
    "io.load_impact_table_rows": "rows",
    "engine.events_eligible": "count",
    "engine.matched_ratio": "ratio",
    "report.output_bytes": "bytes",
    **{f"cli.{c}.overhead_s": "s" for c in COMMANDS},
    "trace.pipeline_traced_s": "s",
    "trace.pipeline_untraced_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


@dataclass
class Sample:
    command: str
    seconds: float
    rss_mb: float
    exit_code: int
    calibration: float  # seconds of calibrate.py, run just before this process
    outputs: dict = field(default_factory=dict)  # file name -> sha256

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_CALIBRATION_S / self.calibration


@dataclass
class Context:
    root: Path
    workload: Workload
    seed: int
    work: Path
    inputs: gen.Inputs | None = None
    paths: dict = field(default_factory=dict)
    event_rows: int = 0

    @property
    def src(self) -> Path:
        return self.root / "src"

    def env(self) -> dict:
        env = dict(os.environ)
        env.pop("PIRMETRICS_OUT", None)
        env["PYTHONPATH"] = str(self.src)
        return env


def run_process(ctx: Context, argv: list, command: str, log: Path) -> Sample:
    """One cold process, timed from spawn to reaped, with its own max RSS,
    preceded by one timed run of calibrate.py."""
    calibration_log = ctx.work / "calibrate.log"
    code, calibration, _ = _timed(ctx, [sys.executable, str(HERE / "calibrate.py")], calibration_log)
    if code != 0:
        raise BenchError(f"calibrate.py failed; see {calibration_log}")
    code, seconds, rss_mb = _timed(ctx, argv, log)
    return Sample(command, seconds, rss_mb, code, calibration)


def _timed(ctx: Context, argv: list, log: Path) -> tuple[int, float, float]:
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def prepare(ctx: Context) -> None:
    """Write the workload's input files; keep generated rows for the checks."""
    inputs_dir = ctx.work / "inputs"
    w = ctx.workload
    if w.shape is None:
        inputs_dir.mkdir(parents=True)
        data = ctx.src / "pirmetrics" / "data"
        for role, name in (
            ("events", "author_events.csv"),
            ("impacts", "impact_table.csv"),
            ("scalars", "scalars.csv"),
            ("profiles", "profiles.csv"),
        ):
            ctx.paths[role] = shutil.copyfile(data / name, inputs_dir / name)
        with open(ctx.paths["events"], encoding="utf-8") as f:
            ctx.event_rows = sum(1 for _ in f) - 1
    else:
        ctx.inputs = gen.generate(w.shape, ctx.seed)
        ctx.paths = gen.write_inputs(ctx.inputs, inputs_dir, w.fmt)
        ctx.event_rows = len(ctx.inputs.events)


def command_args(ctx: Context, command: str, out: Path) -> list:
    w = ctx.workload
    args = [command, "--out", str(out), "--name", DATASET, "--scalars", str(ctx.paths["scalars"])]
    if w.fmt != "csv":
        args += ["--format", w.fmt]
    if command == "compute":
        args += ["--events", str(ctx.paths["events"]), "--impacts", str(ctx.paths["impacts"])]
        args += ["--missing", w.missing, "--window-policy", w.window_policy]
        return args
    profiles = ctx.paths.get("profiles", out / f"{DATASET}.profiles.{w.fmt}")
    args += ["--profiles", str(profiles)]
    if command == "correlate":
        args += list(w.correlate_flags)
    elif command == "report":
        args += list(w.report_flags)
    return args


def run_chain(ctx: Context, index: int, traced: bool) -> list[Sample]:
    out = ctx.work / ("traced" if traced else "chain") / str(index)
    out.mkdir(parents=True)
    samples = []
    for command in COMMANDS:
        log = out / f"{command}.log"
        if traced:
            spans = out / f"{command}.spans.json"
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans), command, "--"]
        else:
            argv = [sys.executable, "-m", "pirmetrics.cli"]
        samples.append(run_process(ctx, argv + command_args(ctx, command, out), command, log))
    for path in sorted(out.iterdir()):
        parts = path.name.split(".")
        if len(parts) == 3 and parts[0] == DATASET and parts[1] in REPORT_OWNER:
            owner = next(s for s in samples if s.command == REPORT_OWNER[parts[1]])
            owner.outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return samples


def setup_sample(ctx: Context) -> Sample:
    argv = [sys.executable, "-c", "import pirmetrics.cli"]
    sample = run_process(ctx, argv, "setup", ctx.work / "setup.log")
    if sample.exit_code != 0:
        raise BenchError(f"importing pirmetrics.cli failed; see {ctx.work / 'setup.log'}")
    return sample


# ---------------------------------------------------------------------------
# output checks


def content_problems(ctx: Context, command: str, out: Path) -> list[str]:
    """Problems in one command's outputs, read from one chain's directory."""
    w = ctx.workload
    if command == "compute":
        path = out / f"{DATASET}.profiles.{w.fmt}"
        if w.shape is None:
            return checks.fixture_profiles(path)
        problems = []
        expected = checks.expected_profiles(ctx.src, ctx.inputs, w.missing, w.window_policy, w.fmt)
        if path.read_text(encoding="utf-8") != expected:
            problems.append(f"{path.name} differs from the in-process engine run")
        nearest = int(w.missing.partition(":")[2] or 0) if w.missing.startswith("nearest") else 0
        open_refs = w.window_policy == "open-references"
        return problems + checks.brute_force_sample(path, ctx.inputs, ctx.seed, nearest, open_refs)
    if command == "summarize":
        path = out / f"{DATASET}.aggregate.{w.fmt}"
        if w.shape is None:
            return checks.fixture_aggregate(path)
        return checks.aggregate_counts(path, w.shape.authors)
    if command == "report" and "--svg" in w.report_flags:
        if not (out / f"{DATASET}.boxplot.svg").exists():
            return ["boxplot.svg missing"]
    return []


def count_failures(ctx: Context, chains: list[tuple[Path, list[Sample]]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every chain.

    A command fails when it exits non-zero, writes no output, writes
    outputs whose sha256 differs from another repetition of the same
    command, or when its outputs fail a content check.
    """
    attempted = failed = 0
    problems: list[str] = []
    verdicts: dict[tuple, list[str]] = {}
    first_outputs: dict[str, dict] = {}
    for out, samples in chains:
        for sample in samples:
            attempted += 1
            if sample.exit_code != 0:
                failed += 1
                problems.append(f"{out.name}/{sample.command}: exit code {sample.exit_code}")
                continue
            if not sample.outputs:
                failed += 1
                problems.append(f"{out.name}/{sample.command}: no output written")
                continue
            reference = first_outputs.setdefault(sample.command, sample.outputs)
            if sample.outputs != reference:
                failed += 1
                problems.append(f"{out.name}/{sample.command}: outputs differ between repetitions")
                continue
            key = (sample.command, tuple(sorted(sample.outputs.items())))
            if key not in verdicts:
                try:
                    verdicts[key] = content_problems(ctx, sample.command, out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
            if verdicts[key]:
                failed += 1
                problems.extend(f"{out.name}/{sample.command}: {p}" for p in verdicts[key][:5])
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# measurement


def measure_end_to_end(ctx: Context, seconds: float) -> tuple[dict, list]:
    """Metrics as (scaled value, sample count, unscaled value), and the chains."""
    start = time.perf_counter()
    setups: list[Sample] = []
    chains = []
    while True:
        began = time.perf_counter()
        setups.append(setup_sample(ctx))
        out = ctx.work / "chain" / str(len(chains))
        chains.append((out, run_chain(ctx, len(chains), traced=False)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    while len(setups) < SETUP_SAMPLES and time.perf_counter() - start < seconds:
        setups.append(setup_sample(ctx))

    samples = setups + [s for _, chain in chains for s in chain]
    (ctx.work / "samples.json").write_text(json.dumps([vars(s) for s in samples], indent=1), encoding="utf-8")
    by_command = {c: [s for _, chain in chains for s in chain if s.command == c] for c in COMMANDS}
    timings = {"setup_s": setups, **{f"{c}_s": v for c, v in by_command.items()}}
    metrics = {
        name: (statistics.median([s.scaled for s in v]), len(v), statistics.median([s.seconds for s in v]))
        for name, v in timings.items()
    }
    metrics["pipeline_s"] = (
        statistics.median([sum(s.scaled for s in chain) for _, chain in chains]),
        len(chains),
        statistics.median([sum(s.seconds for s in chain) for _, chain in chains]),
    )
    compute = metrics["compute_s"]
    metrics["events_per_s"] = (ctx.event_rows / compute[0], compute[1], ctx.event_rows / compute[2])
    commands = samples[len(setups):]
    rss = max(s.rss_mb for s in commands)
    metrics["peak_rss_mb"] = (rss, len(commands), rss)
    calibration = statistics.median([s.calibration for s in samples])
    metrics["calibration_s"] = (calibration, len(samples), calibration)
    return metrics, chains


def import_times(ctx: Context) -> dict:
    times: dict[str, list[float]] = {m: [] for m in MODULES}
    package_dir = str(ctx.src / "pirmetrics")
    for _ in range(IMPORT_SAMPLES):
        for module in MODULES:
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_ONE, package_dir, module],
                cwd=ctx.root,
                env=ctx.env(),
                capture_output=True,
                text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise BenchError(f"importing pirmetrics.{module} failed:\n{done.stderr}")
            times[module].append(float(done.stdout))
    return {f"{m}.import_s": (statistics.median(v), len(v)) for m, v in times.items()}


def load_spans(out: Path) -> dict[str, list]:
    spans = {}
    for command in COMMANDS:
        path = out / f"{command}.spans.json"
        spans[command] = json.loads(path.read_text())["spans"] if path.exists() else []
    return spans


def self_times(spans: dict[str, list], walls: dict[str, float]) -> dict[str, dict]:
    """Self time per command and span name, largest first.

    A span's self time is its duration minus the durations of its child
    spans; `outside` is the command's wall time not covered by any span
    (interpreter start and exit, argument handling, file writes).
    """
    tables = {}
    for command, records in spans.items():
        table = {"outside": walls[command]}
        child = [0.0] * len(records)
        for name, start, end, parent, _, _ in records:
            if parent is None:
                table["outside"] -= end - start
            else:
                child[parent] += end - start
        for i, (name, start, end, _, _, _) in enumerate(records):
            table[name] = table.get(name, 0.0) + (end - start) - child[i]
        tables[command] = dict(sorted(table.items(), key=lambda kv: -kv[1]))
    return tables


def layer_values(spans: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one traced chain, summed over its commands."""
    total: dict[str, float] = {}
    counts: dict[str, float] = {}
    for records in spans.values():
        for name, start, end, _, _, extra in records:
            total[name] = total.get(name, 0.0) + end - start
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def family_sum(key: str) -> float:
        return sum(v for k, v in counts.items() if k.startswith("engine.compute_profiles.") and k.endswith(key))

    eligible = family_sum(".eligible")
    values = {
        "io.load_events_rows": counts.get("io.load_events.rows", 0),
        "io.load_impact_table_rows": counts.get("io.load_impact_table.rows", 0),
        "engine.events_eligible": eligible,
        "engine.matched_ratio": family_sum(".matched") / eligible if eligible else 0.0,
        "report.output_bytes": sum(v for k, v in counts.items() if k.endswith(".bytes")),
    }
    for metric in SPAN_TIMES:
        # a layer that was never called took no time
        values[metric] = total.get(metric[: -len("_s")], 0.0)
    return values


def measure_layers(ctx: Context, seconds: float) -> tuple[dict, list, dict]:
    start = time.perf_counter()
    metrics = import_times(ctx)
    untraced, traced = [], []
    while True:
        began = time.perf_counter()
        untraced.append((ctx.work / "chain" / str(len(untraced)), run_chain(ctx, len(untraced), False)))
        traced.append((ctx.work / "traced" / str(len(traced)), run_chain(ctx, len(traced), True)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    per_chain = []
    for out, samples in traced:
        spans = load_spans(out)
        walls = {s.command: s.seconds for s in samples}
        per_chain.append((layer_values(spans), self_times(spans, walls), spans))
    for metric in per_chain[0][0]:
        metrics[metric] = (statistics.median([v[metric] for v, _, _ in per_chain]), len(per_chain))

    cli_import = metrics["cli.import_s"][0]
    for command in COMMANDS:
        cold = statistics.median([s.seconds for _, samples in untraced for s in samples if s.command == command])
        spans_s = statistics.median(
            [
                sum(e - b for n, b, e, parent, _, _ in spans[command] if parent is None and n != "import")
                for _, _, spans in per_chain
            ]
        )
        metrics[f"cli.{command}.overhead_s"] = (cold - cli_import - spans_s, len(untraced))
    chain_untraced = statistics.median([sum(s.seconds for s in samples) for _, samples in untraced])
    chain_traced = statistics.median([sum(s.seconds for s in samples) for _, samples in traced])
    metrics["trace.pipeline_untraced_s"] = (chain_untraced, len(untraced))
    metrics["trace.pipeline_traced_s"] = (chain_traced, len(traced))
    metrics["trace.overhead_s"] = (chain_traced - chain_untraced, len(traced))

    table = per_chain[len(per_chain) // 2][1]
    trace = {
        "workload": ctx.workload.name,
        "seed": ctx.seed,
        "self_time_s": table,
        "spans": [spans for _, _, spans in per_chain],
    }
    (ctx.work / "trace.json").write_text(json.dumps(trace), encoding="utf-8")
    return metrics, untraced + traced, table


# ---------------------------------------------------------------------------
# entry point


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (root / "src" / "pirmetrics" / "cli.py").is_file():
        raise BenchError(f"no pirmetrics sources under {root / 'src'}")
    work_root = root / ".perfbench_work"
    shutil.rmtree(work_root, ignore_errors=True)
    ctx = Context(root, workload, seed, work_root / workload.name)
    ctx.work.mkdir(parents=True)
    prepare(ctx)
    setup_sample(ctx)  # writes bytecode caches on a fresh checkout; not counted

    if trace:
        metrics, chains, table = measure_layers(ctx, seconds)
        units = PER_LAYER
        print(f"self time per command and span, {workload.name}, one traced chain:", file=sys.stderr)
        for command, rows in table.items():
            for name, value in rows.items():
                print(f"  {command:10s} {name:36s} {value:9.4f} s", file=sys.stderr)
    else:
        metrics, chains = measure_end_to_end(ctx, seconds)
        units = END_TO_END
        table = None
    attempted, failed, problems = count_failures(ctx, chains)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {workload.name}, seed {seed}, trace {int(trace)}")
    for name, (value, n, *raw) in metrics.items():
        unscaled = f"  unscaled {raw[0]:.6f}" if raw else ""
        print(f"  {name:36s} {value:14.6f} {units.get(name, 's'):7s} n={n}{unscaled}")
    print(f"  {'failed_ratio':36s} {failed / attempted:14.6f} {'':7s} {failed} of {attempted} commands")
    for command, rows in (table or {}).items():
        print(f"  largest self time in {command}: {next(iter(rows))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": units[name]} for name, m in metrics.items() if name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(HERE.parent, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
