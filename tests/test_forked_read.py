"""compute reads a large impact table in a forked child while it reads the events.

Each path is forced through io.FORK_MIN_BYTES: 0 sends every existing
pair of inputs to the child (and lets a one-CPU host appear to have
two, and a host that does not tell the parent's CPU tell one, so it
forks too), a size no file reaches keeps the read serial.
Both paths must give the same exit code, log and bytes.
"""

import csv
import json
import marshal
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from pirmetrics import cli
from pirmetrics import io as pio
from pirmetrics.cli import EXIT_INPUT, main
from pirmetrics.data import fixture_path

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")

FORKED, SERIAL = 0, 1 << 62
EVENTS = str(fixture_path("author_events.csv"))
IMPACTS = str(fixture_path("impact_table.csv"))
SCALARS = str(fixture_path("scalars.csv"))
REPO = Path(__file__).resolve().parents[1]
AFFINITY = getattr(os, "sched_getaffinity", None)
KNOWS_CPU = pio._current_cpu() is not None


@pytest.fixture()
def forks(monkeypatch):
    """The number of forks so far; os.fork itself still forks."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def allowed_cpus(monkeypatch, cpus) -> None:
    """Make os.sched_getaffinity(pid) give cpus(real set, or an empty one where the platform has none)."""
    real = AFFINITY or (lambda pid: set())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus(real(pid)), raising=False)


def run(args: list[str], out: Path):
    """(exit code, log, {file name: bytes}) of one compute run."""
    result = CliRunner().invoke(main, ["compute", *args, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return result.exit_code, result.output.replace(str(out), "OUT"), files


def compute(monkeypatch, gate: int, args: list[str], out: Path):
    """run(args, out) with the fork gate at gate."""
    monkeypatch.setattr(pio, "FORK_MIN_BYTES", gate)
    if gate == FORKED:  # a one-CPU host forks too, and so does one that does not tell the parent's CPU
        allowed_cpus(monkeypatch, lambda real: real if len(real) >= 2 else real | {0, 1})
        if not KNOWS_CPU:
            monkeypatch.setattr(pio, "_current_cpu", lambda: 0)
    return run(args, out)


def both_paths(monkeypatch, forks, tmp_path: Path, args: list[str]):
    """compute on the serial path, then on the forked one; the two results, which must be equal."""
    serial = compute(monkeypatch, SERIAL, args, tmp_path / "serial")
    assert not forks
    forked = compute(monkeypatch, FORKED, args, tmp_path / "forked")
    assert len(forks) == 1
    assert forked == serial
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    return forked


def write_table(path: Path, columns: tuple, rows: list) -> str:
    with open(path, "w", encoding="utf-8", newline="") as f:
        if path.suffix == ".json":
            json.dump([dict(zip(columns, row)) for row in rows], f)
        else:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
    return str(path)


def generated_inputs(directory: Path, fmt: str, coverage: float, seed: int = 7) -> list[str]:
    """Small seeded events, impacts and scalars files; below full coverage the table has gaps."""
    rng = random.Random(seed)
    journals = [f"Journal {k}" if k % 5 else f"Annals {k}, Series B" for k in range(12)]
    impacts = [
        (journal, year, family, round(rng.uniform(0.2, 6.0), 3))
        for journal in journals for year in range(2005, 2017) for family in ("SJR", "SNIP")
        if rng.random() < coverage
    ]
    events, scalars = [], []
    for a in range(9):
        author, papers = f"Author {a}", 0
        for i in range(25):
            kind = "publication" if i == 0 else rng.choice(("publication", "citation", "reference"))
            year, count = (rng.randint(2009, 2013) if i == 0 else rng.randint(2006, 2016)), rng.randint(1, 4)
            events.append((author, f"G{a % 3}", kind, rng.choice(journals), year, count))
            papers += count if kind == "publication" else 0
        scalars.append((author, papers, papers * 3, min(papers, 2)))
    directory.mkdir(parents=True, exist_ok=True)
    return [
        "--events", write_table(directory / f"events.{fmt}", pio.EVENT_COLUMNS, events),
        "--impacts", write_table(directory / f"impacts.{fmt}", pio.IMPACT_COLUMNS, impacts),
        "--scalars", write_table(directory / f"scalars.{fmt}", ("author_id", "papers", "cites", "h"), scalars),
    ]


class TestSameBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_fixtures(self, monkeypatch, forks, tmp_path, fmt):
        code, log, files = both_paths(
            monkeypatch, forks, tmp_path,
            ["--events", EVENTS, "--impacts", IMPACTS, "--scalars", SCALARS, "--format", fmt],
        )
        assert code == 0 and len(files) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "coverage, policy, code",
        [
            pytest.param(1.0, ["--missing", "strict"], 0, id="strict"),
            pytest.param(0.8, ["--missing", "strict"], 4, id="strict-gap"),
            pytest.param(0.8, ["--missing", "drop"], 0, id="drop"),
            pytest.param(0.8, ["--missing", "nearest:2", "--window-policy", "open-references"], 0, id="nearest"),
        ],
    )
    def test_generated_inputs(self, monkeypatch, forks, tmp_path, fmt, coverage, policy, code):
        args = generated_inputs(tmp_path / "inputs", fmt, coverage)
        got, log, files = both_paths(monkeypatch, forks, tmp_path, [*args, *policy, "--format", fmt])
        assert got == code and len(files) == (code == 0)

    def test_without_fork_the_read_is_serial(self, monkeypatch, tmp_path):
        args = ["--events", EVENTS, "--impacts", IMPACTS]
        expected = compute(monkeypatch, SERIAL, args, tmp_path / "serial")
        monkeypatch.delattr(os, "fork")
        assert compute(monkeypatch, FORKED, args, tmp_path / "forked") == expected

    def test_a_process_with_threads_reads_serially(self, monkeypatch, forks, tmp_path):
        args = ["--events", EVENTS, "--impacts", IMPACTS]
        expected = compute(monkeypatch, SERIAL, args, tmp_path / "serial")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            assert compute(monkeypatch, FORKED, args, tmp_path / "forked") == expected and not forks
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_the_fixtures_stay_below_the_gate(self, forks, tmp_path):
        result = CliRunner().invoke(main, ["compute", "--events", EVENTS, "--impacts", IMPACTS,
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 0 and not forks


class TestErrorParity:
    @pytest.mark.parametrize(
        "name, text, message",
        [
            pytest.param(
                "impacts.csv", "journal,year,indicator,value\nJ1,2010,SJR,1.5\nJ2,2011,SJR,2.5\nJ3,2_010,SJR,1\n",
                "impact table: line 4: year must be an integer, got '2_010'", id="csv",
            ),
            pytest.param(
                "impacts.json",
                json.dumps([{"journal": "J1", "year": 2010, "indicator": "SJR", "value": 1.5},
                            {"journal": "J2", "year": 2011, "indicator": "SJR", "value": -2.5}]),
                "impact table: row 2: negative impact value -2.5", id="json",
            ),
        ],
    )
    def test_bad_last_row(self, monkeypatch, forks, tmp_path, name, text, message):
        impacts = tmp_path / name
        impacts.write_text(text, encoding="utf-8")
        code, log, files = both_paths(monkeypatch, forks, tmp_path, ["--events", EVENTS, "--impacts", str(impacts)])
        assert code == EXIT_INPUT and message in log and not files

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "no-permission"])
    def test_unreadable_impacts(self, monkeypatch, forks, tmp_path, kind):
        impacts = tmp_path / "impacts.csv"
        if kind == "directory":
            impacts.mkdir()
        else:
            impacts.write_bytes(Path(IMPACTS).read_bytes() + (b"J9,2010,SJR,\xff\n" if kind == "not-utf8" else b""))
            if kind == "no-permission":
                impacts.chmod(0)  # a process that may read every file, as root may, still reads it
        code, log, files = both_paths(monkeypatch, forks, tmp_path, ["--events", EVENTS, "--impacts", str(impacts)])
        if kind != "no-permission" or not os.access(impacts, os.R_OK):
            assert code == EXIT_INPUT and "impact table: " in log and not files

    def test_the_events_error_wins(self, monkeypatch, forks, tmp_path):
        events, impacts = tmp_path / "events.csv", tmp_path / "impacts.csv"
        events.write_text("author_id,group,kind,journal,year,count\na,G,publication,J1,2010,0\n", encoding="utf-8")
        impacts.write_text("journal,year,indicator,value\nJ1,2010,SJR,nan\n", encoding="utf-8")
        code, log, files = both_paths(monkeypatch, forks, tmp_path, ["--events", str(events), "--impacts", str(impacts)])
        assert code == EXIT_INPUT and "events: line 2: " in log and "impact table" not in log


def in_the_child(monkeypatch, module, name, replace):
    """Replace module.name in the forked child alone; the test process keeps the original."""
    original, parent = getattr(module, name), os.getpid()
    monkeypatch.setattr(module, name, lambda *a: original(*a) if os.getpid() == parent else replace(original, *a))


class TestPlacement:
    """The child runs on the allowed CPUs other than the parent's; without one, or the parent's, no child."""

    ARGS = ["--events", EVENTS, "--impacts", IMPACTS, "--scalars", SCALARS]

    @pytest.mark.parametrize(
        "allowed, parent, child",
        [
            pytest.param({0, 1}, 0, {1}, id="two"),
            pytest.param({0, 1, 2, 3}, 2, {0, 1, 3}, id="four"),
            pytest.param({3}, 3, None, id="one-cpu"),
            pytest.param({3}, None, None, id="one-cpu-unknown-parent"),
            pytest.param({0, 1}, None, None, id="unknown-parent"),
            pytest.param(None, 0, None, id="no-affinity"),
        ],
    )
    def test_where_the_child_runs(self, monkeypatch, forks, tmp_path, allowed, parent, child):
        """child: the CPUs the child pins itself to, or None where compute forks no child."""
        expected = compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")
        seen = tmp_path / "child_cpus.json"
        monkeypatch.setattr(pio, "FORK_MIN_BYTES", FORKED)
        if allowed is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            allowed_cpus(monkeypatch, lambda real: allowed)
        monkeypatch.setattr(pio, "_current_cpu", lambda: parent)
        # called in the child alone, and recorded rather than made: these CPUs need not exist here
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, cpus: seen.write_text(json.dumps(sorted(cpus))), raising=False,
        )
        assert run(self.ARGS, tmp_path / "forked") == expected and len(forks) == (child is not None)
        assert (set(json.loads(seen.read_text(encoding="utf-8"))) if seen.exists() else None) == child

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat") or AFFINITY is None, reason="no /proc or affinity")
    def test_current_cpu(self, monkeypatch):
        assert pio._current_cpu() in AFFINITY(0)

        def no_proc(*args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory")

        monkeypatch.setattr(pio, "open", no_proc, raising=False)
        assert pio._current_cpu() is None

    def test_one_cpu_forks_nothing(self, monkeypatch, forks, tmp_path):
        expected = compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")
        monkeypatch.setattr(pio, "FORK_MIN_BYTES", FORKED)
        allowed_cpus(monkeypatch, lambda real: {0})
        assert run(self.ARGS, tmp_path / "one-cpu") == expected and not forks

    def test_unknown_parent_cpu_reads_serially(self, monkeypatch, forks, tmp_path):
        expected = compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")
        monkeypatch.setattr(pio, "FORK_MIN_BYTES", FORKED)
        allowed_cpus(monkeypatch, lambda real: real if len(real) >= 2 else real | {0, 1})
        monkeypatch.setattr(pio, "_current_cpu", lambda: None)
        assert run(self.ARGS, tmp_path / "forked") == expected and not forks

    @pytest.mark.skipif(AFFINITY is None, reason="the platform tells no CPU affinity")
    def test_the_parents_affinity_stays(self, monkeypatch, forks, tmp_path):
        before = AFFINITY(0)
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked")[0] == 0 and len(forks) == 1
        assert AFFINITY(0) == before

    def test_a_failed_pin_ends_the_child_and_the_parent_reads(self, monkeypatch, forks, tmp_path):
        expected = compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")
        refused, read = tmp_path / "refused", tmp_path / "read"

        def refuse(pid, cpus):  # called in the child alone
            refused.touch()
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        monkeypatch.setattr(pio, "_current_cpu", lambda: 0)  # the parent's CPU is known, so the child pins itself
        in_the_child(monkeypatch, pio, "load_impact_table", lambda load, path, fmt: (read.touch(), load(path, fmt))[1])
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked") == expected and len(forks) == 1
        assert refused.exists() and not read.exists()  # the child ended before it read the table
        with pytest.raises(ChildProcessError):  # the child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(
        AFFINITY is None or len(AFFINITY(0)) < 2 or not os.path.exists("/proc/self/stat"),
        reason="the process may run on one CPU only, or the platform does not tell which",
    )
    def test_the_child_runs_off_the_parents_cpu(self, monkeypatch, forks, tmp_path):
        expected = compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")
        allowed, at_fork, seen = AFFINITY(0), [], tmp_path / "child_cpus.json"
        current_cpu = pio._current_cpu

        def parent_cpu():
            at_fork.append(current_cpu())
            return at_fork[-1]

        monkeypatch.setattr(pio, "_current_cpu", parent_cpu)

        def record(load, path, fmt):
            seen.write_text(json.dumps(sorted(AFFINITY(0))), encoding="utf-8")  # the real set, not the patched one
            return load(path, fmt)

        in_the_child(monkeypatch, pio, "load_impact_table", record)
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked") == expected and len(forks) == 1
        (parent_cpu,) = at_fork
        assert set(json.loads(seen.read_text(encoding="utf-8"))) == allowed - {parent_cpu}


class TestChildFailure:
    """A child that sends no whole payload leaves the parent to read the table itself."""

    ARGS = ["--events", EVENTS, "--impacts", IMPACTS, "--scalars", SCALARS]

    def expected(self, monkeypatch, tmp_path):
        return compute(monkeypatch, SERIAL, self.ARGS, tmp_path / "serial")

    @pytest.mark.parametrize("status", [0, 1])
    def test_exit_without_payload(self, monkeypatch, forks, tmp_path, status):
        expected = self.expected(monkeypatch, tmp_path)
        # the child looks load_impact_table up in io
        in_the_child(monkeypatch, pio, "load_impact_table", lambda load, path, fmt: os._exit(status))
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked") == expected and len(forks) == 1

    def test_exception(self, monkeypatch, forks, tmp_path):
        expected = self.expected(monkeypatch, tmp_path)

        def raise_(load, path, fmt):
            raise MemoryError

        in_the_child(monkeypatch, pio, "load_impact_table", raise_)
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked") == expected and len(forks) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(lambda data: data[:-7], id="short"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: b"\xff not marshal", id="undecodable"),
        ],
    )
    def test_bad_payload(self, monkeypatch, forks, tmp_path, payload):
        expected = self.expected(monkeypatch, tmp_path)
        in_the_child(monkeypatch, marshal, "dumps", lambda dumps, value: payload(dumps(value)))
        assert compute(monkeypatch, FORKED, self.ARGS, tmp_path / "forked") == expected and len(forks) == 1


class TestNoChildLeft:
    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError, IndexError])
    def test_after_load_events_raises(self, monkeypatch, forks, tmp_path, error):
        def load_events(path, fmt):
            raise error

        monkeypatch.setattr(cli, "load_events", load_events)
        code, log, files = compute(monkeypatch, FORKED, ["--events", EVENTS, "--impacts", IMPACTS], tmp_path / "out")
        assert code != 0 and not files and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_after_the_table_is_collected(self, monkeypatch, forks, tmp_path):
        code, log, files = compute(monkeypatch, FORKED, ["--events", EVENTS, "--impacts", IMPACTS], tmp_path / "out")
        assert code == 0 and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_traced_compute_records_the_table_read_in_the_parent(tmp_path):
    """perfbench's tracer, run on inputs above the gate, still sees io.load_impact_table and its rows."""
    journals = [f"Journal {k:05d}" for k in range(800)]
    impacts = write_table(
        tmp_path / "impacts.csv", pio.IMPACT_COLUMNS,
        [(j, year, family, 1.25) for j in journals for year in range(2005, 2013) for family in ("SJR", "SNIP")],
    )
    events = write_table(
        tmp_path / "events.csv", pio.EVENT_COLUMNS,
        [(f"Author {k % 300}", "G1", "publication", journals[k % 800], 2010, 1) for k in range(8000)],
    )
    assert min(os.path.getsize(events), os.path.getsize(impacts)) >= pio.FORK_MIN_BYTES
    spans_path = tmp_path / "spans.json"
    # the wrapper counts the forks of the traced process, then runs trace_cli.py as its own main
    wrapper = (
        "import os, runpy, sys; "
        "os.register_at_fork(after_in_parent=lambda: sys.stderr.write('forked\\n')); "
        "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')"
    )
    done = subprocess.run(
        [sys.executable, "-c", wrapper, str(REPO / "perfbench" / "trace_cli.py"), str(spans_path), "compute", "--",
         "compute", "--events", events, "--impacts", impacts, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # one CPU, or a parent CPU the platform does not tell, forks nothing
    assert done.stderr.count("forked\n") == (AFFINITY is not None and len(AFFINITY(0)) >= 2 and KNOWS_CPU)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    (table,) = [span for span in spans if span[0] == "io.load_impact_table"]
    (events_span,) = [span for span in spans if span[0] == "io.load_events"]
    assert table[5] == {"rows": len(pio.load_impact_table(impacts))} == {"rows": 800 * 8 * 2}
    assert table[1] >= events_span[2]  # collected after the events were read
