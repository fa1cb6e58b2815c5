import csv
import gc
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
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
from pirmetrics.model import AuthorCorpus, Event, EventKind, ImpactTable, YearWindow
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
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
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
