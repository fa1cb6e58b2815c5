import csv
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pirmetrics.io as pio
from pirmetrics.data import fixture_path
from pirmetrics.engine import compute_profile
from pirmetrics.io import (
    IngestError,
    ScalarMetrics,
    load_events,
    load_impact_table,
    load_scalars,
    save_events,
    save_impact_table,
    save_scalars,
)
from pirmetrics.model import AuthorCorpus, Event, EventKind, ImpactTable, ModelError, YearWindow
from pirmetrics.report import load_profiles

WIN = YearWindow(2009, 2013)


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestLoadImpactTable:
    def test_basic_row(self):
        table = load_impact_table(
            csv_stream("journal,year,indicator,value\nPhysical Review Letters,2009,SJR,5.264\n")
        )
        assert table.get("Physical Review Letters", 2009, "SJR") == 5.264

    def test_header_only_is_empty_table(self):
        table = load_impact_table(csv_stream("journal,year,indicator,value\n"))
        assert len(table) == 0

    def test_source_of_another_type_is_refused(self):
        with pytest.raises(IngestError, match="^cannot read from int$"):
            load_impact_table(42)

    def test_duplicate_key_names_both_lines(self):
        text = (
            "journal,year,indicator,value\n"
            "J1,2010,SJR,1.0\n"
            "J2,2010,SJR,2.0\n"
            "J1,2010,SJR,3.0\n"
        )
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream(text))
        message = str(excinfo.value)
        assert "line 4" in message and "line 2" in message

    @pytest.mark.parametrize(
        "fmt, text, where",
        [
            ("csv", "journal,year,indicator,value\nJ1,2010,SJR,1\nJ1,2010,SJR,2\n", "line 3 (first seen at line 2)"),
            ("json", json.dumps([{"journal": "J1", "year": 2010, "indicator": "SJR", "value": v} for v in (1, 2)]),
             "row 2 (first seen at row 1)"),
        ],
    )
    def test_duplicate_key_location_words(self, fmt, text, where):
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(io.StringIO(text), fmt)
        assert str(excinfo.value) == f"impact table: duplicate key ('J1', 2010, 'SJR') at {where}"

    def test_negative_value_rejected_with_line(self):
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream("journal,year,indicator,value\nJ1,2010,SJR,-1\n"))
        assert "line 2" in str(excinfo.value)

    @pytest.mark.parametrize("csv_raw, json_raw", [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")])
    def test_non_finite_value_rejected_with_location(self, csv_raw, json_raw):
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream(f"journal,year,indicator,value\nJ1,2010,SJR,{csv_raw}\n"))
        assert "line 2: non-finite" in str(excinfo.value)
        text = f'[{{"journal": "J1", "year": 2010, "indicator": "SJR", "value": {json_raw}}}]'
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream(text), fmt="json")
        assert "row 1: non-finite" in str(excinfo.value)

    def test_json_bool_value_rejected_with_row(self):
        text = '[{"journal": "J1", "year": 2010, "indicator": "SJR", "value": true}]'
        with pytest.raises(IngestError, match=r"^impact table: row 1: impact value must be a number, got True$"):
            load_impact_table(io.StringIO(text), fmt="json")

    @pytest.mark.parametrize(
        "fmt, raw, outcome",
        [
            ("csv", "abc", "line 2: impact value must be a number, got 'abc'"),
            ("csv", "nan", "line 2: non-finite impact value nan"),
            ("csv", "inf", "line 2: non-finite impact value inf"),
            ("csv", "-1", "line 2: negative impact value -1.0"),
            ("csv", "1_0", "line 2: impact value must be a number, got '1_0'"),
            ("csv", "1e400", "line 2: non-finite impact value inf"),
            ("csv", "-0", -0.0),
            ("csv", " 2.5 ", 2.5),
            ("json", "true", "row 1: impact value must be a number, got True"),
            ("json", "1e400", "row 1: non-finite impact value inf"),
            ("json", "-1", "row 1: negative impact value -1.0"),
            ("json", '"-0"', -0.0),
            ("json", "-0", 0.0),
            ("json", "3", 3.0),
        ],
    )
    def test_each_value_reads_one_way(self, fmt, raw, outcome):
        if fmt == "csv":
            text = f"journal,year,indicator,value\nJ1,2010,SJR,{raw}\n"
        else:
            text = f'[{{"journal": "J1", "year": 2010, "indicator": "SJR", "value": {raw}}}]'
        if isinstance(outcome, str):
            with pytest.raises(IngestError) as excinfo:
                load_impact_table(io.StringIO(text), fmt)
            assert str(excinfo.value) == f"impact table: {outcome}"
        else:
            value = load_impact_table(io.StringIO(text), fmt).get("J1", 2010, "SJR")
            assert (value, math.copysign(1, value)) == (outcome, math.copysign(1, outcome))

    def test_malformed_year(self):
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream("journal,year,indicator,value\nJ1,MMX,SJR,1\n"))
        assert "line 2" in str(excinfo.value)

    def test_missing_header_column(self):
        with pytest.raises(IngestError):
            load_impact_table(csv_stream("journal,year,value\nJ1,2010,1\n"))

    def test_json_round_trip(self):
        table = load_impact_table(fixture_path("impact_table.csv"))
        buf = io.StringIO()
        save_impact_table(table, buf, fmt="json")
        again = load_impact_table(io.StringIO(buf.getvalue()), fmt="json")
        assert again == table

    def test_csv_round_trip(self):
        table = load_impact_table(fixture_path("impact_table.csv"))
        buf = io.StringIO()
        save_impact_table(table, buf, fmt="csv")
        again = load_impact_table(io.StringIO(buf.getvalue()))
        assert again == table


class TestLoadEvents:
    def test_basic_row(self):
        corpora = load_events(
            csv_stream(
                "author_id,group,kind,journal,year,count\n"
                "bocci,Phy,publication,Physical Review Letters,2009,25\n"
            )
        )
        assert len(corpora) == 1
        corpus = corpora[0]
        assert corpus.author_id == "bocci"
        assert corpus.group == "Phy"
        assert corpus.events[0] == Event(
            EventKind.PUBLICATION, "Physical Review Letters", 2009, 25
        )

    def test_kind_case_insensitive(self):
        corpora = load_events(
            csv_stream(
                "author_id,group,kind,journal,year,count\n"
                "a,,Publication,J1,2010,1\n"
                "a,,CITATION,J1,2010,2\n"
            )
        )
        kinds = {e.kind for e in corpora[0].events}
        assert kinds == {EventKind.PUBLICATION, EventKind.CITATION}

    def test_unknown_kind_rejected(self):
        with pytest.raises(IngestError) as excinfo:
            load_events(
                csv_stream("author_id,group,kind,journal,year,count\na,,patent,J1,2010,1\n")
            )
        assert "line 2" in str(excinfo.value)

    def test_zero_count_rejected(self):
        with pytest.raises(IngestError):
            load_events(
                csv_stream("author_id,group,kind,journal,year,count\na,,citation,J1,2010,0\n")
            )

    def test_same_key_rows_kept_and_merged_on_use(self):
        corpora = load_events(
            csv_stream(
                "author_id,group,kind,journal,year,count\n"
                "a,,publication,J1,2010,2\n"
                "a,,publication,J1,2010,3\n"
            )
        )
        corpus = corpora[0]
        assert len(corpus.events) == 2
        assert corpus.merged_counts(EventKind.PUBLICATION) == {("J1", 2010): 5}

    def test_conflicting_groups_rejected(self):
        with pytest.raises(IngestError) as excinfo:
            load_events(
                csv_stream(
                    "author_id,group,kind,journal,year,count\n"
                    "a,Phy,publication,J1,2010,1\n"
                    "a,Chem,publication,J1,2011,1\n"
                )
            )
        assert "conflicting groups" in str(excinfo.value)

    def test_empty_group_filled_by_a_later_row(self):
        corpora = load_events(
            csv_stream(
                "author_id,group,kind,journal,year,count\n"
                "a,,publication,J1,2010,1\n"
                "a,Phy,citation,J1,2010,2\n"
                "a,,reference,J1,2010,3\n"
            )
        )
        assert [(c.author_id, c.group, len(c.events)) for c in corpora] == [("a", "Phy", 3)]

    def test_first_json_row_missing_fields_rejected_as_a_later_one_is(self):
        text = json.dumps([{"author_id": "a", "group": "G", "kind": "publication", "year": 2010}])
        with pytest.raises(IngestError, match=r"^events: row 1: missing fields \['journal', 'count'\]$"):
            load_events(io.StringIO(text), fmt="json")

    def test_later_json_row_missing_a_field_rejected_with_row(self):
        text = json.dumps([
            {"author_id": "a", "group": "G", "kind": "publication", "journal": "J1", "year": 2010, "count": 1},
            {"author_id": "a", "group": "G", "kind": "publication", "journal": "J1", "year": 2011},
        ])
        with pytest.raises(IngestError, match=r"^events: row 2: missing fields \['count'\]$"):
            load_events(io.StringIO(text), fmt="json")

    def test_round_trip_csv_and_json(self):
        corpora = load_events(fixture_path("author_events.csv"))
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            save_events(corpora, buf, fmt=fmt)
            again = load_events(io.StringIO(buf.getvalue()), fmt=fmt)
            assert again == corpora


class TestLoadScalars:
    def test_basic_row(self):
        scalars = load_scalars(csv_stream('author_id,papers,cites,h\n"Bocci, A.",412,8780,42\n'))
        assert scalars["Bocci, A."] == ScalarMetrics("Bocci, A.", 412, 8780, 42)

    def test_degenerate_zero_record(self):
        scalars = load_scalars(csv_stream("author_id,papers,cites,h\nx,0,0,0\n"))
        assert scalars["x"].papers == 0

    def test_h_above_papers_rejected(self):
        with pytest.raises(IngestError) as excinfo:
            load_scalars(csv_stream("author_id,papers,cites,h\nx,10,50,12\n"))
        assert "h" in str(excinfo.value)

    def test_h_above_cites_rejected_when_papers_positive(self):
        with pytest.raises(IngestError):
            load_scalars(csv_stream("author_id,papers,cites,h\nx,10,3,5\n"))

    def test_negative_rejected(self):
        with pytest.raises(IngestError):
            load_scalars(csv_stream("author_id,papers,cites,h\nx,-1,0,0\n"))

    def test_duplicate_author_rejected(self):
        with pytest.raises(IngestError):
            load_scalars(
                csv_stream("author_id,papers,cites,h\nx,1,1,1\nx,2,2,2\n")
            )

    @pytest.mark.parametrize(
        "papers, cites, h, message",
        [
            (-1, 0, 0, "negative scalar metric"),
            (3, 9, 5, "h (5) exceeds paper count (3)"),
            (10, 3, 5, "h (5) exceeds citation count (3)"),
        ],
        ids=["negative", "h-above-papers", "h-above-cites"],
    )
    @pytest.mark.parametrize("fmt, where", [("csv", "scalars: line 3: "), ("json", "scalars: row 2: ")],
                             ids=["csv", "json"])
    def test_range_error_names_its_location(self, papers, cites, h, message, fmt, where):
        if fmt == "csv":
            text = f"author_id,papers,cites,h\nok,1,1,1\nx,{papers},{cites},{h}\n"
        else:
            text = json.dumps([
                {"author_id": "ok", "papers": 1, "cites": 1, "h": 1},
                {"author_id": "x", "papers": papers, "cites": cites, "h": h},
            ])
        with pytest.raises(IngestError) as excinfo:
            load_scalars(io.StringIO(text), fmt=fmt)
        assert str(excinfo.value) == f"{where}'x': {message}"

    def test_round_trip(self):
        scalars = load_scalars(fixture_path("scalars.csv"))
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            save_scalars(scalars, buf, fmt=fmt)
            again = load_scalars(io.StringIO(buf.getvalue()), fmt=fmt)
            assert again == scalars


class TestAssembleDataset:
    """The supplied paper count of the fixture author is the engine's in-window publication total."""

    def test_loader_totals_equal_engine_totals(self, bocci_corpus, bocci_impacts, fixture_scalars):
        profile = compute_profile(bocci_corpus, bocci_impacts, "SJR", WIN)
        diag = profile.coverage[EventKind.PUBLICATION]
        assert diag.total_count == fixture_scalars["Bocci, A."].papers == 412


class TestJsonMirrors:
    def test_events_json_is_one_object_per_row(self):
        corpora = [
            AuthorCorpus("a", (Event(EventKind.PUBLICATION, "J1", 2010, 1),), group="Phy")
        ]
        buf = io.StringIO()
        save_events(corpora, buf, fmt="json")
        payload = json.loads(buf.getvalue())
        assert payload == [
            {
                "author_id": "a",
                "group": "Phy",
                "kind": "publication",
                "journal": "J1",
                "year": 2010,
                "count": 1,
            }
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(IngestError):
            load_events(csv_stream(""), fmt="xml")


class TestRowShape:
    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_impact_table, "journal,year,indicator,value\nJ1,2010,SJR,1\nJ1,2011,SJR\n"),
            (load_events, "author_id,group,kind,journal,year,count\na,,citation,J1,2010,1\na,,citation,J1,2011\n"),
            (load_scalars, "author_id,papers,cites,h\nx,1,1,1\ny,1,1\n"),
            (load_profiles, "author_id,group,papers,cites,h,p_sjr\nx,Phy,1,1,1,2.0\ny,Phy,1,1,1\n"),
        ],
    )
    def test_short_csv_row_rejected_with_line(self, loader, text):
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(text))
        assert "line 3: short row" in str(excinfo.value)

    def test_long_csv_row_rejected_with_line(self):
        with pytest.raises(IngestError) as excinfo:
            load_scalars(csv_stream("author_id,papers,cites,h\nx,1,1,1,9\n"))
        assert "line 2" in str(excinfo.value)


    def test_csv_syntax_error_rejected_with_line(self):
        with pytest.raises(IngestError) as excinfo:
            load_scalars(csv_stream("author_id,papers,cites,h\nx,1,1,1\ny,1,1,\r1\n"))
        assert "line 3: new-line character seen in unquoted field" in str(excinfo.value)


class TestPathInputs:
    def test_loading_from_paths_leaves_no_open_files(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_events(fixture_path("author_events.csv"))
            load_impact_table(fixture_path("impact_table.csv"))
            load_scalars(fixture_path("scalars.csv"))
            load_profiles(fixture_path("profiles.csv"))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_a_file_whose_second_read_decodes_is_not_utf8_without_a_line(self, tmp_path, monkeypatch):
        # the bytes read again for the line number may differ from the first read's: one rewritten meanwhile, say
        header = b"author_id,group,kind,journal,year,count\n"
        path = tmp_path / "events.csv"
        path.write_bytes(header + b"a,G,publication,J\xff,2010,1\n")
        real_open = open

        def open_reading_valid_bytes(file, mode="r", *args, **kwargs):
            return io.BytesIO(header) if mode == "rb" else real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(pio, "open", open_reading_valid_bytes, raising=False)
        with pytest.raises(IngestError) as excinfo:
            load_events(path)
        assert str(excinfo.value) == "events: not UTF-8"


class TestAtomicWrites:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "scalars.csv"
        path.write_bytes(b"old bytes\n")
        scalars = load_scalars(fixture_path("scalars.csv"))
        real_open = open

        class FailingFile:
            """A file that takes half of what it is given, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(pio, "open", lambda *a, **k: FailingFile(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            save_scalars(scalars, path)
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]

        monkeypatch.undo()
        save_scalars(scalars, path)
        assert load_scalars(path) == scalars
        assert list(tmp_path.iterdir()) == [path]


class TestSaveTexts:
    def test_writes_every_path_and_no_temporary_file(self, tmp_path):
        files = {tmp_path / "a.csv": "a\n", tmp_path / "b.svg": "<svg/>\n"}
        (tmp_path / "a.csv").write_text("old a\n")
        pio.save_texts(files)
        assert {path: path.read_text() for path in tmp_path.iterdir()} == files

    def test_failed_write_leaves_every_path_untouched(self, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_bytes(b"old a\n")
        (tmp_path / "c.csv").write_bytes(b"old c\n")
        files = {tmp_path / name: f"new {name}\n" for name in ("a.csv", "b.csv", "c.csv")}
        real_open = open

        def open_failing_on_c(file, *args, **kwargs):
            if "c.csv" in str(file):
                raise OSError(28, "No space left on device")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(pio, "open", open_failing_on_c, raising=False)
        with pytest.raises(OSError) as excinfo:
            pio.save_texts(files)
        # the error names the path being written, not its temporary file
        assert (excinfo.value.filename, excinfo.value.strerror) == (str(tmp_path / "c.csv"), "No space left on device")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {"a.csv": b"old a\n", "c.csv": b"old c\n"}

    def test_failed_replace_removes_every_temporary_file(self, tmp_path, monkeypatch):
        files = {tmp_path / "a.csv": "a\n", tmp_path / "b.csv": "b\n"}

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(pio.os, "replace", failing_replace)
        with pytest.raises(PermissionError) as excinfo:
            pio.save_texts(files)
        assert excinfo.value.filename == str(tmp_path / "a.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are removed only on posix")
    def test_an_unlocked_temporary_file_is_removed_whatever_its_pid(self, tmp_path, monkeypatch):
        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()  # reaped: its pid names no process

        def no_probe(pid, sig):
            raise AssertionError(f"probed pid {pid}")

        monkeypatch.setattr(pio.os, "kill", no_probe)
        # a reaped pid, this process's live parent, pid 1, alive everywhere, and a pid no process can have
        removed = {f".a.csv.{pid}.tmp" for pid in (dead.pid, os.getppid(), 1, 10**29)}
        kept = {f".b.csv.{dead.pid}.tmp", ".a.csv.x.tmp", "a.csv.tmp"}
        for name in removed | kept:
            (tmp_path / name).write_text("partial")
        pio.save_texts({tmp_path / "a.csv": "a\n"})
        # b.csv was not written, and the other two are no names save_texts stages under
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*kept, "a.csv"})

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are locked only on posix")
    def test_a_locked_temporary_file_stays(self, tmp_path):
        import fcntl

        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()
        # a run whose pid this process cannot see, in another container sharing the directory, say
        foreign = tmp_path / f".a.csv.{dead.pid}.tmp"
        foreign.write_text("partial")
        with open(foreign, "rb+") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            pio.save_texts({tmp_path / "a.csv": "a\n"})
            assert foreign.read_text() == "partial"
        pio.save_texts({tmp_path / "a.csv": "a\n"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

        # a live process that holds its staging file locked, as a run does until its rename
        hold = (
            "import fcntl, os, sys\n"
            "with open(os.path.join(sys.argv[1], f'.a.csv.{os.getpid()}.tmp'), 'w') as f:\n"
            "    f.write('partial')\n"
            "    f.flush()\n"
            "    fcntl.flock(f, fcntl.LOCK_EX)\n"
            "    print('locked', flush=True)\n"
            "    sys.stdin.read()\n"
        )
        with subprocess.Popen([sys.executable, "-c", hold, str(tmp_path)], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as holder:
            staged = tmp_path / f".a.csv.{holder.pid}.tmp"
            assert holder.stdout.readline() == "locked\n"
            pio.save_texts({tmp_path / "a.csv": "a\n"})
            assert staged.read_text() == "partial"
            holder.communicate()  # stdin closes, so the holder ends and its lock goes
        assert holder.returncode == 0 and staged.exists()
        pio.save_texts({tmp_path / "a.csv": "a\n"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are locked only on posix")
    def test_each_temporary_file_is_locked_until_it_replaces_its_path(self, tmp_path, monkeypatch):
        import fcntl

        replace, locked = os.replace, []

        def replace_checking_the_lock(src, dst):
            with open(src, "rb+") as other:
                try:
                    fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    locked.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(pio.os, "replace", replace_checking_the_lock)
        pio.save_texts({tmp_path / "a.csv": "a\n", tmp_path / "b.csv": "b\n"})
        assert locked == ["a.csv", "b.csv"]
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.csv": "a\n", "b.csv": "b\n"}

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are locked only on posix")
    def test_a_temporary_file_removed_before_its_lock_is_made_again(self, tmp_path, monkeypatch):
        import fcntl

        tmp, flock, removed = tmp_path / f".a.csv.{os.getpid()}.tmp", fcntl.flock, []

        def flock_after_a_cleanup(fd, operation):
            if not removed:  # another run's cleanup locks and removes the file first
                tmp.unlink()
                removed.append(tmp.name)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_a_cleanup)
        pio.save_texts({tmp_path / "a.csv": "a\n"})
        assert removed and {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.csv": "a\n"}


    @pytest.mark.skipif(os.name != "posix", reason="temporary files are locked only on posix")
    def test_a_file_system_without_locks_still_writes(self, tmp_path, monkeypatch):
        import fcntl

        def no_locks(fd, operation):
            raise OSError(37, "No locks available")

        monkeypatch.setattr(fcntl, "flock", no_locks)
        pio.save_texts({tmp_path / "a.csv": "a\n", tmp_path / "b.csv": "b\n"})
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.csv": "a\n", "b.csv": "b\n"}

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are removed only on posix")
    def test_a_symlink_at_the_runs_own_staging_name_is_removed(self, tmp_path):
        out, victim = tmp_path / "out", tmp_path / "victim.txt"
        out.mkdir()
        victim.write_text("victim\n")
        (out / f".a.csv.{os.getpid()}.tmp").symlink_to(victim)
        pio.save_texts({out / "a.csv": "a\n"})
        assert victim.read_text() == "victim\n"
        assert {p.name: p.read_text() for p in out.iterdir()} == {"a.csv": "a\n"}

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are opened without following links only on posix")
    def test_a_symlink_planted_after_the_sweep_is_refused(self, tmp_path, monkeypatch):
        out, victim = tmp_path / "out", tmp_path / "victim.txt"
        out.mkdir()
        victim.write_text("victim\n")
        sweep = pio._remove_abandoned_temporaries

        def sweep_then_plant(paths):
            sweep(paths)
            (out / f".a.csv.{os.getpid()}.tmp").symlink_to(victim)

        monkeypatch.setattr(pio, "_remove_abandoned_temporaries", sweep_then_plant)
        with pytest.raises(OSError) as excinfo:
            pio.save_texts({out / "a.csv": "a\n"})
        assert (excinfo.value.errno, excinfo.value.filename) == (errno.ELOOP, str(out / "a.csv"))
        assert victim.read_text() == "victim\n" and list(out.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are removed only on posix")
    def test_a_killed_runs_symlink_is_not_followed(self, tmp_path, monkeypatch):
        import fcntl

        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()
        victim, flock, locked = tmp_path / "victim.txt", fcntl.flock, []
        victim.write_text("victim\n")
        link = tmp_path / f".a.csv.{dead.pid}.tmp"
        link.symlink_to(victim)

        def recording_flock(fd, operation):
            locked.append(os.fstat(fd).st_ino)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", recording_flock)
        pio.save_texts({tmp_path / "a.csv": "a\n"})
        assert victim.stat().st_ino not in locked  # the sweep never opened the link's target
        assert victim.read_text() == "victim\n" and (tmp_path / "a.csv").read_text() == "a\n"
        assert not os.path.lexists(link)  # the link itself is gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "victim.txt"]

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are removed only on posix")
    def test_a_fifo_or_socket_is_removed_and_a_directory_stays(self, tmp_path, monkeypatch):
        import socket

        monkeypatch.chdir(tmp_path)  # a socket's path is bound relative, within the length a socket address allows
        # no process reads the fifo, so it cannot be opened for writing; the sweep unlinks it unopened
        os.mkfifo(".a.csv.1.tmp")
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(f".a.csv.{os.getppid()}.tmp")
        Path(".b.csv.1.tmp").mkdir()
        pio.save_texts({tmp_path / "a.csv": "a\n", tmp_path / "b.csv": "b\n"})
        assert (tmp_path / "a.csv").read_text() == "a\n" and (tmp_path / "b.csv").read_text() == "b\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [".b.csv.1.tmp", "a.csv", "b.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="temporary files are locked only on posix")
    def test_two_processes_writing_the_same_paths_each_keep_their_own_files(self, tmp_path):
        # each process writes both paths 50 times once both have started, sweeping the other's staging files
        race = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from pirmetrics.io import save_texts\n"
            "out, me, other = Path(sys.argv[1]), sys.argv[2], sys.argv[3]\n"
            "(out.parent / me).touch()\n"
            "while not (out.parent / other).exists():\n"
            "    time.sleep(0.001)\n"
            "for _ in range(50):\n"
            "    save_texts({out / 'a.csv': f'{me}\\n' * 4000, out / 'b.csv': f'{me}\\n' * 6000})\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(pio.__file__).resolve().parents[1])}
        runs = [subprocess.Popen([sys.executable, "-c", race, str(out), me, other], env=env)
                for me, other in (("x", "y"), ("y", "x"))]
        assert [run.wait(timeout=60) for run in runs] == [0, 0]
        texts = {p.name: p.read_text() for p in out.iterdir()}
        assert sorted(texts) == ["a.csv", "b.csv"]  # no staging file is left
        assert texts["a.csv"] in ("x\n" * 4000, "y\n" * 4000) and texts["b.csv"] in ("x\n" * 6000, "y\n" * 6000)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the process's descriptors in /proc")
    def test_a_failed_lock_descriptor_closes_the_file_and_names_the_path(self, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_bytes(b"old a\n")
        files = {tmp_path / "a.csv": "new a\n", tmp_path / "b.csv": "new b\n"}

        def no_descriptor_left(fd):
            raise OSError(errno.EMFILE, "Too many open files")

        before = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(pio.os, "dup", no_descriptor_left)
        with pytest.raises(OSError) as excinfo:
            pio.save_texts(files)
        monkeypatch.undo()
        assert (excinfo.value.errno, excinfo.value.filename) == (errno.EMFILE, str(tmp_path / "a.csv"))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {"a.csv": b"old a\n"}
        assert len(os.listdir("/proc/self/fd")) == before  # the staged file's descriptor was closed


class TestJsonFieldTypes:
    ROWS = {
        load_events: {"author_id": "a", "group": "Phy", "kind": "citation", "journal": "J1", "year": 2010, "count": 1},
        load_impact_table: {"journal": "J1", "year": 2010, "indicator": "SJR", "value": 1.0},
        load_scalars: {"author_id": "x", "papers": 3, "cites": 9, "h": 1},
        load_profiles: {"author_id": "a", "group": "Phy", "papers": 3, "cites": 9, "h": 1},
    }

    def load_with(self, loader, key, value):
        row = {**self.ROWS[loader], key: value}
        loader(csv_stream(json.dumps([row])), fmt="json")

    @pytest.mark.parametrize(
        "loader, key, value",
        [
            (load_events, "author_id", 5),
            (load_events, "group", 7),
            (load_events, "journal", ["J1"]),
            (load_impact_table, "journal", 1),
            (load_impact_table, "indicator", {"n": "SJR"}),
            (load_scalars, "author_id", 3),
            (load_profiles, "author_id", True),
            (load_profiles, "group", 1.5),
        ],
    )
    def test_non_string_text_field_rejected_with_row(self, loader, key, value):
        with pytest.raises(IngestError) as excinfo:
            self.load_with(loader, key, value)
        assert f"row 1: {key} must be a string" in str(excinfo.value)

    @pytest.mark.parametrize(
        "loader, key",
        [
            (load_events, "author_id"),
            (load_events, "group"),
            (load_events, "journal"),
            (load_impact_table, "journal"),
            (load_impact_table, "indicator"),
            (load_scalars, "author_id"),
            (load_profiles, "author_id"),
            (load_profiles, "group"),
        ],
    )
    def test_text_utf8_cannot_encode_rejected_with_row(self, loader, key):
        # json escapes may spell a lone surrogate, which no UTF-8 output file can hold
        with pytest.raises(IngestError) as excinfo:
            self.load_with(loader, key, "a\udc80")
        assert str(excinfo.value).endswith(f": row 1: {key} is not valid text, got 'a\\udc80'")

    @pytest.mark.parametrize(
        "loader, key, value",
        [
            (load_events, "count", 2.7),
            (load_events, "year", 2010.5),
            (load_events, "count", True),
            (load_impact_table, "year", 2010.2),
            (load_scalars, "papers", 2.7),
            (load_scalars, "cites", 9.5),
            (load_scalars, "h", 0.5),
            (load_profiles, "h", 1.5),
        ],
    )
    def test_non_integral_count_rejected_with_row(self, loader, key, value):
        with pytest.raises(IngestError) as excinfo:
            self.load_with(loader, key, value)
        assert f"row 1: {key} must be an integer" in str(excinfo.value)

    def test_integral_float_and_null_group_still_load(self):
        row = {"author_id": "a", "group": None, "kind": "citation", "journal": "J1", "year": 2010.0, "count": 3.0}
        (corpus,) = load_events(csv_stream(json.dumps([row])), fmt="json")
        assert corpus.group is None
        assert corpus.events == (Event(EventKind.CITATION, "J1", 2010, 3),)


class TestDecimalText:
    """Numeric text is ASCII decimal: int() and float() alone also read '_' separators and other scripts' digits."""

    IMPACTS = "journal,year,indicator,value\n"
    EVENTS = "author_id,group,kind,journal,year,count\n"

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_impact_table, IMPACTS + "J1,\uff12\uff10\uff11\uff10,SJR,1_0.5\n",
             "impact table: line 2: year must be an integer, got '\uff12\uff10\uff11\uff10'"),
            (load_impact_table, IMPACTS + "J1,2_010,SJR,1\n", "impact table: line 2: year must be an integer, got '2_010'"),
            (load_impact_table, IMPACTS + "J1,2010,SJR,1_0.5\n",
             "impact table: line 2: impact value must be a number, got '1_0.5'"),
            (load_impact_table, IMPACTS + "J1,2010,SJR,\u0661.5\n",
             "impact table: line 2: impact value must be a number, got '\u0661.5'"),
            (load_events, EVENTS + "a,G,publication,J1,2010,1_0\n", "events: line 2: count must be an integer, got '1_0'"),
            (load_events, EVENTS + "a,G,publication,J1,\u0662\u0660\u0661\u0660,1\n",
             "events: line 2: year must be an integer, got '\u0662\u0660\u0661\u0660'"),
            (load_scalars, "author_id,papers,cites,h\na,1_2,20,1\n", "scalars: line 2: papers must be an integer, got '1_2'"),
            (load_profiles, "author_id,group,h,p_sjr\na,G,1,1_0.5\n", "profiles: line 2: p_sjr must be a number, got '1_0.5'"),
            (load_profiles, "author_id,group,h,p_sjr\na,G,\uff11,1\n", "profiles: line 2: h must be an integer, got '\uff11'"),
        ],
        ids=["impact-fullwidth-year", "impact-separated-year", "impact-separated-value", "impact-arabic-indic-value",
             "events-separated-count", "events-arabic-indic-year", "scalars-separated", "profiles-separated-cell",
             "profiles-fullwidth-h"],
    )
    def test_rejected_with_line(self, loader, text, message):
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(text))
        assert str(excinfo.value) == message

    def test_ascii_forms_still_load(self):
        table = load_impact_table(csv_stream(self.IMPACTS + "J1, 2010 ,SJR,1.5e1\nJ1,+2011,SJR, .5 \n"))
        assert sorted(table.entries()) == [("J1", 2010, "SJR", 15.0), ("J1", 2011, "SJR", 0.5)]


def json_containers(inner):
    """Json arrays and objects of inner's values, up to three of them."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


class TestLoaderFuzz:
    """Whatever the input, a loader returns or raises IngestError, nothing else."""

    COLUMNS = {
        load_events: ["author_id", "group", "kind", "journal", "year", "count"],
        load_impact_table: ["journal", "year", "indicator", "value"],
        load_scalars: ["author_id", "papers", "cites", "h"],
        load_profiles: ["author_id", "group", "papers", "cites", "h", "p_sjr", "i_sjr", "pi_snip"],
    }
    CELLS = st.one_of(
        st.sampled_from(
            ["", " ", "NA", "nan", "-inf", "1e400", "-1", "0", "1", "2.7", "2010", "x",
             "publication", "citation", "reference", "SJR", "\x00", '"', ","]
        ),
        st.text(max_size=6),
    )
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
        | st.sampled_from(["NA", "publication", "SJR", "2010", "2.7"]),
        json_containers,
        max_leaves=4,
    )

    @staticmethod
    def _loads_or_ingest_error(loader, text, fmt):
        try:
            loader(csv_stream(text), fmt=fmt)
        except IngestError:
            pass

    @pytest.mark.parametrize("loader", list(COLUMNS), ids=lambda f: f.__name__)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_csv(self, loader, data):
        columns = self.COLUMNS[loader]
        header = data.draw(st.lists(st.sampled_from(columns + ["extra"]), min_size=1, unique=True) | st.just(columns))
        rows = data.draw(st.lists(st.lists(self.CELLS, min_size=len(header) - 1, max_size=len(header) + 1), max_size=4))
        text = "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"
        self._loads_or_ingest_error(loader, text, "csv")

    @pytest.mark.parametrize("loader", list(COLUMNS), ids=lambda f: f.__name__)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_json(self, loader, data):
        columns = self.COLUMNS[loader]
        row = st.fixed_dictionaries({c: self.JSON_VALUES for c in columns}) | st.dictionaries(
            st.sampled_from(columns), self.JSON_VALUES
        )
        payload = data.draw(st.lists(row, max_size=4) | self.JSON_VALUES)
        self._loads_or_ingest_error(loader, json.dumps(payload), "json")


class TestPhysicalLineNumbers:
    """A csv location is the physical line the row ends on: blank lines and quoted newlines count."""

    def test_events(self):
        text = 'author_id,group,kind,journal,year,count\na,,citation,"J\n1",2010,1\n\na,,citation,J1,2010,x\n'
        with pytest.raises(IngestError, match=r"^events: line 5: count must be an integer, got 'x'$"):
            load_events(csv_stream(text))

    def test_impact_table_duplicate_names_both_physical_lines(self):
        text = 'journal,year,indicator,value\nJ1,2010,SJR,1.0\n\n"J\n2",2010,SJR,2.0\nJ1,2010,SJR,3.0\n'
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream(text))
        assert str(excinfo.value) == (
            "impact table: duplicate key ('J1', 2010, 'SJR') at line 6 (first seen at line 2)"
        )

    def test_scalars(self):
        text = 'author_id,papers,cites,h\n"x\ny",1,1,1\n\nz,1,1,-1\n'
        with pytest.raises(IngestError, match=r"^scalars: line 5: 'z': negative scalar metric$"):
            load_scalars(csv_stream(text))

    def test_profiles(self):
        text = 'author_id,group,papers,cites,h,p_sjr\n\n"x\ny",Phy,1,1,1,2.0\nz,Phy,1,1,1,abc\n'
        with pytest.raises(IngestError, match=r"^profiles: line 5: p_sjr must be a number, got 'abc'$"):
            load_profiles(csv_stream(text))

    def test_blank_lines_between_rows_are_skipped(self):
        text = "author_id,papers,cites,h\n\nx,1,1,1\n\n\ny,2,2,1\n"
        assert list(load_scalars(csv_stream(text))) == ["x", "y"]

    def test_blank_first_line_is_an_empty_header(self):
        with pytest.raises(IngestError, match="missing columns"):
            load_scalars(csv_stream("\nauthor_id,papers,cites,h\nx,1,1,1\n"))


class TestEventLoaderParity:
    """Kind spellings, json oddities and syntax errors read as they always have."""

    def load_json(self, **fields):
        row = {"author_id": "a", "group": "", "kind": "citation", "journal": "J1", "year": 2010, "count": 1}
        return load_events(csv_stream(json.dumps([{**row, **fields}])), fmt="json")

    def test_padded_mixed_case_kind(self):
        (corpus,) = load_events(csv_stream("author_id,group,kind,journal,year,count\na,, Citation ,J1,2010,1\n"))
        assert corpus.events == (Event(EventKind.CITATION, "J1", 2010, 1),)
        (corpus,) = self.load_json(kind=" Citation ")
        assert corpus.events == (Event(EventKind.CITATION, "J1", 2010, 1),)

    @pytest.mark.parametrize("kind, shown", [(5, "'5'"), (None, "'None'"), (["citation"], "\"['citation']\"")])
    def test_non_string_json_kind(self, kind, shown):
        with pytest.raises(IngestError) as excinfo:
            self.load_json(kind=kind)
        assert str(excinfo.value) == (
            f"events: row 1: unknown event kind {shown}; "
            "expected one of ['publication', 'citation', 'reference']"
        )

    def test_null_json_journal(self):
        with pytest.raises(IngestError, match=r"^events: row 1: journal id must be non-empty$"):
            self.load_json(journal=None)

    def test_csv_syntax_error_location(self):
        text = "author_id,group,kind,journal,year,count\na,,citation,J1,2010,1\na,,citation,J\r1,2010,1\n"
        with pytest.raises(IngestError, match=r"^events: line 3: new-line character seen in unquoted field"):
            load_events(csv_stream(text))



def reference_load_events(source, fmt="csv"):
    """load_events as it read rows before its run shortcut: every row looked up, every Event built through Event."""
    events, groups = {}, {}
    author_ids, group_names = pio._Memo(pio._text, "author_id"), pio._Memo(pio._text, "group")
    journals, years = pio._Memo(pio._text, "journal"), pio._Memo(pio._parse_int, "year")
    counts = pio._Memo(pio._parse_int, "count")
    try:
        for lineno, (author_id, group, kind, journal, year, count) in pio._rows(source, fmt, pio.EVENT_COLUMNS, "events"):
            author_id = author_ids[author_id] if type(author_id) is str else pio._text(author_id, "author_id")
            if not author_id:
                raise pio._FieldError("empty author_id")
            group = (group_names[group] if type(group) is str else pio._text(group, "group")) or None
            try:
                kind = pio._KINDS[kind]
            except (KeyError, TypeError):
                kind = EventKind.parse(str(kind))
            year = years[year] if type(year) in pio._KEYS else pio._parse_int(year, "year")
            count = counts[count] if type(count) in pio._KEYS else pio._parse_int(count, "count")
            event = Event(kind, journals[journal] if type(journal) is str else pio._text(journal, "journal"), year, count)
            author_events = events.get(author_id)
            if author_events is None:
                author_events = events[author_id] = []
                groups[author_id] = group
            elif group is not None:
                if groups[author_id] is None:
                    groups[author_id] = group
                elif groups[author_id] != group:
                    raise pio._FieldError(
                        f"author {author_id!r} has conflicting groups {groups[author_id]!r} and {group!r}"
                    )
            author_events.append(event)
    except (pio._FieldError, ModelError) as exc:
        raise pio._located(exc, "events", fmt, lineno) from None
    return [AuthorCorpus(author_id, tuple(evs), group=groups[author_id]) for author_id, evs in events.items()]


def _row(author_id, group, kind="citation", journal="J1", year=2010, count=1):
    return {"author_id": author_id, "group": group, "kind": kind, "journal": journal, "year": year, "count": count}


_IDS = st.sampled_from(["a", " a", "a ", "b", "", " ", None, 0, 1, True, 1.5])
_GROUPS = st.sampled_from(["", "G", " G", "H", None, 0, False, 2.0])
_KIND_SPELLINGS = st.just("citation") | st.sampled_from(["publication", " Reference", "patent", 5, None])
_JOURNALS = st.just("J1") | st.sampled_from(["J2", " J1", "", " ", None, 3])
_YEARS = st.just(2010) | st.sampled_from([2011, "2010", 2010.0, 2010.5, "x", "2_010", True, None])
_COUNTS = st.just(1) | st.sampled_from([2, "1", 3.0, 0, "0", -1, 2**53, 2**53 + 1, str(2**53 + 1), True, "x"])


@st.composite
def _author_runs(draw):
    """Runs of one author's rows, whose group may change mid-run, each field drawn from good and bad values."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        author_id, group = draw(_IDS), draw(_GROUPS)
        for _ in range(draw(st.integers(1, 4))):
            group = draw(st.just(group) | _GROUPS)
            rows.append(_row(author_id, group, draw(_KIND_SPELLINGS), draw(_JOURNALS), draw(_YEARS), draw(_COUNTS)))
    return rows


class TestLoadEventsAgainstReference:
    """load_events reads every input as reference_load_events does: the same corpora, or the same error."""

    @staticmethod
    def text_of(rows, fmt):
        if fmt == "json":
            return json.dumps(rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(pio.EVENT_COLUMNS)
        writer.writerows([["" if v is None else str(v) for v in row.values()] for row in rows])
        return buf.getvalue()

    @staticmethod
    def outcome(loader, text, fmt):
        try:
            corpora = loader(csv_stream(text), fmt=fmt)
        except IngestError as exc:
            return "error", str(exc)
        return [(c.author_id, c.group, [(type(e), *e) for e in c.events]) for c in corpora]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_author_runs())
    # a group empty, then filled, then conflicting, inside one author's run
    @example(rows=[_row("a", ""), _row("a", "G"), _row("a", ""), _row("a", "H"), _row("b", "G")])
    # ids that differ only in whitespace are one author, interleaved with another
    @example(rows=[_row(" a", "G"), _row("a", "G"), _row("b", ""), _row("a ", ""), _row("b", "H")])
    # two faults in one row: the first one parsed is reported, before the group conflict
    @example(rows=[_row("a", "G"), _row("a", "H", count=0), _row("a", "H", journal="")])
    @example(rows=[_row("a", "G"), _row("a", "G"), _row("a", "H", year="x", count=0)])
    @example(rows=[_row("a", "G"), _row("a", "G", journal="", count=2**53 + 1)])
    # one fault inside a run: an empty journal, and counts either side of the range
    @example(rows=[_row("a", "G"), _row("a", "G", journal=""), _row("a", "G")])
    @example(rows=[_row("a", "G"), _row("a", "G", count=0), _row("a", "G")])
    @example(rows=[_row("a", "G", count=2**53), _row("a", "G", count=2**53 + 1)])
    # json null, "", numbers and bools as an id or a group, after a run they might equal
    @example(rows=[_row("a", None), _row("a", ""), _row("a", None), _row(None, None)])
    @example(rows=[_row("1", "0"), _row(1, "0")])
    @example(rows=[_row("a", "0"), _row("a", 0)])
    @example(rows=[_row("a", "True"), _row("a", True)])
    def test_same_corpora_or_same_error(self, fmt, rows):
        text = self.text_of(rows, fmt)
        assert self.outcome(load_events, text, fmt) == self.outcome(reference_load_events, text, fmt)

class TestSavedBytes:
    """The exact bytes of every save_* writer, in csv and json."""

    CORPORA = [
        AuthorCorpus(
            "Müller, J.",
            (
                Event(EventKind.PUBLICATION, "Bocci, A.", 2010, 3),
                Event(EventKind.CITATION, "Zeitschrift für Physik", 2011, 1),
            ),
            group="Phy",
        ),
        AuthorCorpus("b", (Event(EventKind.REFERENCE, "J1", 2012, 2),)),
    ]
    TABLE = ImpactTable(
        [("Zeitschrift für Physik", 2011, "SNIP", 2.5), ("Bocci, A.", 2010, "SJR", 0.1 + 0.2)]
    )
    SCALARS = {"Müller, J.": ScalarMetrics("Müller, J.", 3, 10, 2), "b": ScalarMetrics("b", 0, 0, 0)}

    EXPECTED = {
        ("events", "csv"): (
            "author_id,group,kind,journal,year,count\n"
            '"Müller, J.",Phy,publication,"Bocci, A.",2010,3\n'
            '"Müller, J.",Phy,citation,Zeitschrift für Physik,2011,1\n'
            "b,,reference,J1,2012,2\n"
        ),
        ("events", "json"): (
            "[\n"
            '  {\n    "author_id": "Müller, J.",\n    "group": "Phy",\n    "kind": "publication",\n'
            '    "journal": "Bocci, A.",\n    "year": 2010,\n    "count": 3\n  },\n'
            '  {\n    "author_id": "Müller, J.",\n    "group": "Phy",\n    "kind": "citation",\n'
            '    "journal": "Zeitschrift für Physik",\n    "year": 2011,\n    "count": 1\n  },\n'
            '  {\n    "author_id": "b",\n    "group": "",\n    "kind": "reference",\n'
            '    "journal": "J1",\n    "year": 2012,\n    "count": 2\n  }\n'
            "]\n"
        ),
        ("impacts", "csv"): (
            "journal,year,indicator,value\n"
            '"Bocci, A.",2010,SJR,0.30000000000000004\n'
            "Zeitschrift für Physik,2011,SNIP,2.5\n"
        ),
        ("impacts", "json"): (
            "[\n"
            '  {\n    "journal": "Bocci, A.",\n    "year": 2010,\n    "indicator": "SJR",\n'
            '    "value": 0.30000000000000004\n  },\n'
            '  {\n    "journal": "Zeitschrift für Physik",\n    "year": 2011,\n    "indicator": "SNIP",\n'
            '    "value": 2.5\n  }\n'
            "]\n"
        ),
        ("scalars", "csv"): 'author_id,papers,cites,h\n"Müller, J.",3,10,2\nb,0,0,0\n',
        ("scalars", "json"): (
            "[\n"
            '  {\n    "author_id": "Müller, J.",\n    "papers": 3,\n    "cites": 10,\n    "h": 2\n  },\n'
            '  {\n    "author_id": "b",\n    "papers": 0,\n    "cites": 0,\n    "h": 0\n  }\n'
            "]\n"
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("what", ["events", "impacts", "scalars"])
    def test_golden_bytes(self, tmp_path, what, fmt):
        save, data = {
            "events": (save_events, self.CORPORA),
            "impacts": (save_impact_table, self.TABLE),
            "scalars": (save_scalars, self.SCALARS),
        }[what]
        path = tmp_path / f"{what}.{fmt}"
        save(data, path, fmt)
        assert path.read_bytes() == self.EXPECTED[(what, fmt)].encode("utf-8")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(IngestError, match=r"^unknown format 'xml'; expected csv or json$"):
            save_scalars(self.SCALARS, tmp_path / "s.xml", "xml")
        assert list(tmp_path.iterdir()) == []


class TestByteOrderMark:
    """A leading UTF-8 byte order mark, as spreadsheet exports write, is not part of the header."""

    @pytest.mark.parametrize(
        "loader, name",
        [
            (load_events, "author_events.csv"),
            (load_impact_table, "impact_table.csv"),
            (load_scalars, "scalars.csv"),
            (load_profiles, "profiles.csv"),
        ],
    )
    def test_loaders_read_bom_prefixed_csv_as_plain(self, tmp_path, loader, name):
        plain = fixture_path(name).read_bytes()
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        expected = loader(fixture_path(name))
        assert loader(path) == expected


class TestColumnLookup:
    """Each column is found once by name: order is free, other columns are ignored, repeats are rejected."""

    CANONICAL = {
        load_events: (
            "author_id,group,kind,journal,year,count\n"
            "a,Phy,publication,J1,2010,2\na,,citation,J2,2011,1\nb,Med,reference,J1,2009,4\n"
        ),
        load_impact_table: "journal,year,indicator,value\nJ1,2010,SJR,1.5\nJ1,2010,SNIP,0.9\nJ2,2011,SJR,2.25\n",
        load_scalars: "author_id,papers,cites,h\na,3,9,1\nb,0,0,0\n",
    }

    @staticmethod
    def rearranged(text: str) -> str:
        """The same table with its columns reversed and an unused column in the middle."""
        lines = [line.split(",") for line in text.splitlines()]
        out = []
        for i, fields in enumerate(lines):
            fields = fields[::-1]
            fields.insert(2, "note" if i == 0 else f"n{i}")
            out.append(",".join(fields))
        return "\n".join(out) + "\n"

    @pytest.mark.parametrize("loader", list(CANONICAL), ids=lambda f: f.__name__)
    def test_csv_columns_in_another_order_with_an_extra_column(self, loader):
        text = self.CANONICAL[loader]
        assert self.rearranged(text).splitlines()[0] != text.splitlines()[0]
        assert loader(csv_stream(self.rearranged(text))) == loader(csv_stream(text))

    @pytest.mark.parametrize("loader", list(CANONICAL), ids=lambda f: f.__name__)
    def test_json_rows_with_an_extra_key(self, loader):
        rows = list(csv.DictReader(io.StringIO(self.CANONICAL[loader])))
        extra = [{"note": i, **row} for i, row in enumerate(rows)]
        assert loader(csv_stream(json.dumps(extra)), "json") == loader(csv_stream(self.CANONICAL[loader]))

    def test_error_in_a_moved_column_names_it(self):
        text = "count,year,journal,kind,group,author_id\n1,2010,J1,citation,,a\nx,2010,J1,citation,,a\n"
        with pytest.raises(IngestError, match=r"^events: line 3: count must be an integer, got 'x'$"):
            load_events(csv_stream(text))

    LABELS = {load_events: "events", load_impact_table: "impact table", load_scalars: "scalars", load_profiles: "profiles"}
    REPEATS = pytest.mark.parametrize(
        "loader, header, row, repeated",
        [
            (load_events, "author_id,group,kind,journal,year,count,year", "a,G,publication,J1,2010,1,1999", "year"),
            (load_impact_table, "journal,year,indicator,value,year", "J1,2010,SJR,1.5,1999", "year"),
            (load_scalars, "author_id,papers,cites,h,papers", "a,3,9,1,5", "papers"),
            (load_profiles, "author_id,group,p_sjr,group", "a,G,1.5,H", "group"),
        ],
        ids=["events", "impact_table", "scalars", "profiles"],
    )

    @REPEATS
    def test_repeated_csv_column_rejected(self, loader, header, row, repeated):
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(f"{header}\n{row}\n"))
        assert str(excinfo.value) == f"{self.LABELS[loader]}: duplicate column '{repeated}' in header"

    @REPEATS
    def test_repeated_json_key_rejected(self, loader, header, row, repeated):
        # json.load alone would keep the last copy of the key and read the row as valid
        names, values = header.split(","), row.split(",")
        first = json.dumps(dict(zip(names[:-1], values[:-1])))
        pairs = ", ".join(f"{json.dumps(name)}: {json.dumps(value)}" for name, value in zip(names, values))
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(f"[{first}, {{{pairs}}}]"), "json")
        assert str(excinfo.value) == f"{self.LABELS[loader]}: row 2: duplicate key '{repeated}'"

    def test_repeated_key_in_a_nested_object_is_named(self):
        text = '[{"journal": {"n": 1, "n": 2}, "year": 2010, "indicator": "SJR", "value": 1}]'
        with pytest.raises(IngestError) as excinfo:
            load_impact_table(csv_stream(text), "json")
        assert str(excinfo.value) == "impact table: row 1: journal must be a string, got an object that repeats the key 'n'"

    def test_repeated_unused_column_rejected(self):
        with pytest.raises(IngestError, match=r"^scalars: duplicate column 'note' in header$"):
            load_scalars(csv_stream("note,author_id,papers,cites,h,note\n,a,3,9,1,\n"))


class TestParsedOnce:
    """Each distinct field text is parsed once per load; errors read as a per-row parse words them."""

    EVENT = {"author_id": "a", "group": "G", "kind": "citation", "journal": "J1", "year": 2010, "count": 1}
    IMPACT = {"journal": "J1", "year": 2010, "indicator": "SJR", "value": 1.0}

    @staticmethod
    def error_of(loader, rows, fmt="json"):
        """The message loading rows fails with; csv rows come as their text."""
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(json.dumps(rows) if fmt == "json" else rows), fmt=fmt)
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "key, first, then, message",
        [
            ("year", 1, True, "year must be an integer, got True"),
            ("count", 1, True, "count must be an integer, got True"),
            ("year", 2010, 2010.5, "year must be an integer, got 2010.5"),
            ("year", 0, False, "year must be an integer, got False"),
        ],
    )
    def test_bool_or_fraction_after_its_equal_int(self, key, first, then, message):
        rows = [{**self.EVENT, key: first}, {**self.EVENT, key: then}]
        assert self.error_of(load_events, rows) == f"events: row 2: {message}"

    @pytest.mark.parametrize("then, shown", [(True, "True"), (2010.5, "2010.5"), (1.5, "1.5")])
    def test_impact_year_after_its_equal_int(self, then, shown):
        rows = [{**self.IMPACT, "year": 1}, {**self.IMPACT, "year": 2010}, {**self.IMPACT, "year": then}]
        assert self.error_of(load_impact_table, rows) == f"impact table: row 3: year must be an integer, got {shown}"

    def test_bool_year_exits_3(self, tmp_path):
        from click.testing import CliRunner

        from pirmetrics.cli import main

        events = tmp_path / "boolyear.json"
        events.write_text(json.dumps([{**self.EVENT, "year": 1}, {**self.EVENT, "year": True}]))
        out = tmp_path / "o"
        args = ["compute", "--events", str(events), "--impacts", str(fixture_path("impact_table.csv")), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "events: row 2: year must be an integer, got True" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "loader, key, value, message",
        [
            (load_events, "journal", ["J1"], "journal must be a string, got ['J1']"),
            (load_events, "journal", {"n": "J1"}, "journal must be a string, got {'n': 'J1'}"),
            (load_events, "year", [2010], "year must be an integer, got [2010]"),
            (load_events, "year", {"y": 2010}, "year must be an integer, got {'y': 2010}"),
            (load_events, "count", [1], "count must be an integer, got [1]"),
            (load_events, "count", {"n": 1}, "count must be an integer, got {'n': 1}"),
            (load_impact_table, "journal", ["J1"], "journal must be a string, got ['J1']"),
            (load_impact_table, "year", [2010], "year must be an integer, got [2010]"),
            (load_impact_table, "year", {"y": 2010}, "year must be an integer, got {'y': 2010}"),
        ],
    )
    def test_list_or_object_is_a_field_error(self, loader, key, value, message):
        base = self.EVENT if loader is load_events else self.IMPACT
        rows = [base, {**base, "journal": "J2", key: value}]
        label = "events" if loader is load_events else "impact table"
        assert self.error_of(loader, rows) == f"{label}: row 2: {message}"

    @pytest.mark.parametrize(
        "loader, fields, message",
        [
            (load_events, {"year": "x", "count": "y"}, "year must be an integer, got 'x'"),
            (load_events, {"year": True, "count": [1]}, "year must be an integer, got True"),
            (load_events, {"count": "y", "journal": ["J1"]}, "count must be an integer, got 'y'"),
            (load_events, {"count": True, "journal": None}, "count must be an integer, got True"),
            (load_impact_table, {"journal": 5, "year": True}, "journal must be a string, got 5"),
            (load_impact_table, {"journal": " ", "year": "x"}, "empty journal id"),
            (load_impact_table, {"year": "x", "value": "y"}, "year must be an integer, got 'x'"),
        ],
    )
    def test_two_bad_fields_report_the_first(self, loader, fields, message):
        base = self.EVENT if loader is load_events else self.IMPACT
        label = "events" if loader is load_events else "impact table"
        rows = [base, {**base, "journal": "J2"}, {**base, **fields}]
        assert self.error_of(loader, rows) == f"{label}: row 3: {message}"

    def test_csv_errors_read_as_before(self):
        text = "author_id,group,kind,journal,year,count\na,G,citation,J1,2010,1\na,G,citation,J1,20x0,y\n"
        assert self.error_of(load_events, text, "csv") == "events: line 3: year must be an integer, got '20x0'"
        text = "author_id,group,kind,journal,year,count\na,G,citation,J1,2010,1\na,G,citation, ,2010,0\n"
        assert self.error_of(load_events, text, "csv") == "events: line 3: journal id must be non-empty"
        text = "journal,year,indicator,value\nJ1,2010,SJR,1\nJ1,true,SJR,x\n"
        assert self.error_of(load_impact_table, text, "csv") == "impact table: line 3: year must be an integer, got 'true'"
        text = "author_id,group,kind,journal,year,count\na,G,citation,J1,2010,1\na,G,citation,J1,2010.0,1\n"
        assert self.error_of(load_events, text, "csv") == "events: line 3: year must be an integer, got '2010.0'"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_events_share_repeated_fields(self, fmt):
        rows = [["a", "G", "citation", "Journal of X", 2010, 300], ["b", "", "reference", "Journal of X", 2010, 300]]
        text = pio._encode_table(["author_id", "group", "kind", "journal", "year", "count"], rows, fmt)
        (x,), (y,) = (corpus.events for corpus in load_events(csv_stream(text), fmt=fmt))
        assert x == (EventKind.CITATION, "Journal of X", 2010, 300)
        assert y == (EventKind.REFERENCE, "Journal of X", 2010, 300)
        assert x.journal is y.journal and x.year is y.year and x.count is y.count

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_impact_keys_share_repeated_fields(self, fmt):
        rows = [["Journal of X", 2010, "SJR", 1.0], ["Journal of X", 2011, "SJR", 2.0], ["J2", 2010, "SNIP", 3.0]]
        text = pio._encode_table(["journal", "year", "indicator", "value"], rows, fmt)
        table = load_impact_table(csv_stream(text), fmt=fmt)
        (j1, y1), (j2, _) = table.family("SJR")
        ((_, y3),) = table.family("SNIP")
        assert j1 == "Journal of X" and y1 == 2010
        assert j1 is j2 and y1 is y3

    # raw field values: padded text, ints, integral floats, bools, null, a list, an object;
    # half of the draws are valid, so that later rows meet what earlier rows stored
    JOURNALS = st.sampled_from(["J1", " J1 ", "J2"]) | st.sampled_from(["", " ", "1", 1, True, None, ["J1"], {"n": "J1"}])
    NUMBERS = st.sampled_from(["1", " 1 ", "2010", 1, 1.0, 2010]) | st.sampled_from(
        [True, False, 0, 2010.5, "2010.0", "x", None, [1], {"n": 1}]
    )

    @staticmethod
    def per_row_events(rows, where):
        """load_events' result for rows of one author, each field parsed on its own."""
        events = []
        for lineno, row in rows:
            try:
                year = pio._parse_int(row["year"], "year")
                count = pio._parse_int(row["count"], "count")
                events.append(Event(EventKind.CITATION, pio._text(row["journal"], "journal"), year, count))
            except ValueError as exc:  # a field or model error
                return f"events: {where} {lineno}: {exc}"
        return [AuthorCorpus("a", tuple(events), group="G")]

    @staticmethod
    def per_row_impacts(rows, where):
        """load_impact_table's families for rows with one indicator each, each field parsed on its own."""
        families = {}
        for lineno, row in rows:
            try:
                journal = pio._text(row["journal"], "journal")
                if not journal:
                    raise pio._FieldError("empty journal id")
                families[row["indicator"]] = {(journal, pio._parse_int(row["year"], "year")): 1.0}
            except ValueError as exc:
                return f"impact table: {where} {lineno}: {exc}"
        return families

    @settings(max_examples=500, deadline=None)
    @given(fields=st.lists(st.tuples(JOURNALS, NUMBERS, NUMBERS), min_size=1, max_size=8), fmt=st.sampled_from(["csv", "json"]))
    def test_memo_matches_a_per_row_parse(self, fields, fmt):
        if fmt == "csv":  # csv carries text only
            fields = [row for row in fields if all(type(raw) is str for raw in row)]
            if not fields:
                return
        events = [{**self.EVENT, "journal": j, "year": y, "count": c} for j, y, c in fields]
        impacts = [{**self.IMPACT, "journal": j, "year": y, "indicator": f"F{i}"} for i, (j, y, _) in enumerate(fields)]
        for loader, rows, reference in ((load_events, events, self.per_row_events),
                                        (load_impact_table, impacts, self.per_row_impacts)):
            text = pio._encode_table(list(rows[0]), [list(row.values()) for row in rows], fmt)
            expected = reference(enumerate(rows, start=2), "line") if fmt == "csv" else reference(enumerate(rows, start=1), "row")
            try:
                result = loader(csv_stream(text), fmt=fmt)
            except IngestError as exc:
                result = str(exc)
            else:
                if loader is load_impact_table:
                    result = {name: dict(result.family(name)) for name in result.indicators()}
            assert result == expected


class TestJsonRowsAsFields:
    """A json row is read as its required fields, and every row rule reads as it does for a row object."""

    ROWS = {
        load_events: ("events", {"author_id": "a", "group": "G", "kind": "citation", "journal": "J1", "year": 2010, "count": 1}),
        load_impact_table: ("impact table", {"journal": "J1", "year": 2010, "indicator": "SJR", "value": 1.5}),
        load_scalars: ("scalars", {"author_id": "a", "papers": 3, "cites": 9, "h": 1}),
    }
    NESTED_IN = {load_events: "journal", load_impact_table: "journal", load_scalars: "author_id"}
    LOADERS = pytest.mark.parametrize("loader", list(ROWS), ids=lambda f: f.__name__)

    @staticmethod
    def rows_of(base: dict, n: int) -> list[dict]:
        """n valid rows, each with its own first field."""
        first = next(iter(base))
        return [{**base, first: f"{base[first]}{i}"} for i in range(n)]

    @staticmethod
    def repeating(base: dict) -> str:
        """base as json text, with its last key written twice; json.dumps cannot write that."""
        last = list(base)[-1]
        return json.dumps(base)[:-1] + f", {json.dumps(last)}: {json.dumps(base[last])}}}"

    def error_of(self, loader, text: str) -> str:
        with pytest.raises(IngestError) as excinfo:
            loader(csv_stream(text), "json")
        label, _ = self.ROWS[loader]
        assert str(excinfo.value).startswith(f"{label}: ")
        return str(excinfo.value)[len(label) + 2:]

    @LOADERS
    def test_nested_object_holding_every_field_shows_as_an_object(self, loader):
        _, base = self.ROWS[loader]
        key = self.NESTED_IN[loader]
        message = self.error_of(loader, json.dumps([{**base, key: base}]))
        assert message == f"row 1: {key} must be a string, got {base!r}"

    @LOADERS
    def test_nested_object_under_an_extra_key_is_ignored(self, loader):
        _, base = self.ROWS[loader]
        rows = self.rows_of(base, 3)
        noted = [rows[0], {**rows[1], "note": base}, rows[2]]
        assert loader(csv_stream(json.dumps(noted)), "json") == loader(csv_stream(json.dumps(rows)), "json")

    @LOADERS
    def test_top_level_object_holding_every_field_is_no_array(self, loader):
        _, base = self.ROWS[loader]
        assert self.error_of(loader, json.dumps(base)) == "expected a json array of row objects"

    @LOADERS
    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda base: {k: v for k, v in base.items() if k != list(base)[-1]}, "row 3: missing fields ['{last}']"),
            (lambda base: list(base.values()), "row 3: expected an object"),
            (lambda base: 5, "row 3: expected an object"),
            (None, "row 3: duplicate key '{last}'"),
        ],
        ids=["missing-field", "array", "number", "repeated-key"],
    )
    def test_bad_row_after_good_rows_keeps_its_number(self, loader, bad, message):
        _, base = self.ROWS[loader]
        good = json.dumps(self.rows_of(base, 2))[:-1]
        third = self.repeating(base) if bad is None else json.dumps(bad(base))
        assert self.error_of(loader, f"{good}, {third}]") == message.format(last=list(base)[-1])

    @LOADERS
    @pytest.mark.parametrize("bad", ["5", "[]", "repeated"])
    def test_bad_row_after_a_nested_object_holding_every_field(self, loader, bad):
        # the nested object and its row make two objects read as fields, as many as there are rows
        _, base = self.ROWS[loader]
        first = json.dumps({**base, "note": base})
        if bad == "repeated":
            bad, message = self.repeating(base), f"duplicate key {list(base)[-1]!r}"
        else:
            message = "expected an object"
        assert self.error_of(loader, f"[{first}, {bad}]") == f"row 2: {message}"

    @LOADERS
    def test_valid_input_is_decoded_once(self, loader, monkeypatch):
        calls = []
        loads = json.loads

        def counted(*args, **kwargs):
            calls.append(None)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        _, base = self.ROWS[loader]
        rows = self.rows_of(base, 3)
        rows[1]["note"] = {"nested": [1, {"deeper": None}]}
        loader(csv_stream(json.dumps(rows)), "json")
        assert len(calls) == 1
