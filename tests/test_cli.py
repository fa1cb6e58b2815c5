import csv
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import click
import pytest
from click.testing import CliRunner

import pirmetrics
from pirmetrics import cli
from pirmetrics import io as pio
from pirmetrics import report as rpt
from pirmetrics.cli import (
    EXIT_COMPUTE,
    EXIT_FEW_GROUPS,
    EXIT_INPUT,
    EXIT_MISSING_IMPACT,
    EXIT_NO_AUTHORS,
    EXIT_UNKNOWN_NAME,
    Pipeline,
    _Setting,
    config_option,
    main,
)
from pirmetrics.data import fixture_path
from pirmetrics.engine import BatchError, EngineError, MissingImpactError
from pirmetrics.io import IngestError
from pirmetrics.report import GroupError, ReportError
from pirmetrics.stats import StatsError


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, expect=0):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == expect, result.output + (result.stderr or "")
    return result


def read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


EVENTS = str(fixture_path("author_events.csv"))
IMPACTS = str(fixture_path("impact_table.csv"))
SCALARS = str(fixture_path("scalars.csv"))
PROFILES = str(fixture_path("profiles.csv"))


class TestCompute:
    def test_golden_single_author(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "compute",
            "--events", EVENTS,
            "--impacts", IMPACTS,
            "--scalars", SCALARS,
            "--out", str(out),
            "--name", "golden",
        )
        rows = read_rows(out / "golden.profiles.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["author_id"] == "Bocci, A."
        assert row["group"] == "Phy"
        assert row["papers"] == "412"
        assert row["p_sjr"] == "2.817"
        assert row["i_sjr"] == "1.936"
        assert row["r_sjr"] == "2.727"
        assert row["pi_sjr"] == "1.455"
        assert row["p_snip"] == "1.693"

    def test_empty_events_no_authors_exit(self, runner, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("author_id,group,kind,journal,year,count\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(out)],
        )
        assert result.exit_code == EXIT_NO_AUTHORS
        assert not (out / "events.profiles.csv").exists()

    def test_strict_gap_names_journal_and_year(self, runner, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "author_id,group,kind,journal,year,count\n"
            "a,Phy,publication,Journal of Missing Impacts,2011,4\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "compute",
                "--events", str(events),
                "--impacts", IMPACTS,
                "--out", str(out),
                "--missing", "strict",
            ],
        )
        assert result.exit_code == EXIT_MISSING_IMPACT
        assert "Journal of Missing Impacts" in result.output
        assert "2011" in result.output

    def test_malformed_events_input_exit(self, runner, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("author_id,group,kind,journal,year,count\na,Phy,publication,J1,2011,0\n")
        result = runner.invoke(
            main,
            ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == EXIT_INPUT

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param({2: {"count": 0}}, "event count must be >= 1, got 0 (citation, 'J1', 2010)", id="count-0"),
            pytest.param({2: {"journal": ""}}, "journal id must be non-empty", id="empty-journal"),
            pytest.param({3: {"group": "H"}}, "author 'a' has conflicting groups 'G' and 'H'", id="group-on-last-row"),
        ],
    )
    def test_a_bad_row_inside_an_authors_run_exits_with_its_message(self, runner, tmp_path, fmt, bad, message):
        # author a's run is rows 0-3 of 5; each case breaks the one row it names
        good = {"author_id": "a", "group": "G", "kind": "citation", "journal": "J1", "year": 2010, "count": 1}
        data = [{**good, **bad.get(i, {})} for i in range(4)] + [{**good, "author_id": "b"}]
        (index,) = bad
        events, out = tmp_path / f"events.{fmt}", tmp_path / "o"
        if fmt == "json":
            events.write_text(json.dumps(data))
        else:
            events.write_text("".join(",".join(map(str, row)) + "\n" for row in [good, *(r.values() for r in data)]))
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(out)])
        where = f"line {index + 2}" if fmt == "csv" else f"row {index + 1}"
        assert result.exit_code == EXIT_INPUT
        assert f"Error: events: {where}: {message}\n" in result.output
        assert not out.exists()

    def test_non_finite_impact_input_exit(self, runner, tmp_path):
        impacts = tmp_path / "impacts.csv"
        impacts.write_text("journal,year,indicator,value\nJ1,2010,SJR,1.5\nJ1,2011,SJR,nan\n")
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["compute", "--events", EVENTS, "--impacts", str(impacts), "--out", str(out)]
        )
        assert result.exit_code == EXIT_INPUT
        assert "line 3" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "impacts, cell",
        [
            ("J1,2010,SJR,1.5\nJ2,2010,SJR,1e-310\n", "pi_sjr"),  # P / I overflows
            ("J1,2010,SJR,1e308\nJ2,2010,SJR,1.0\n", "p_sjr"),  # 2 x 1e308 overflows
        ],
    )
    def test_non_finite_cell_exit(self, runner, tmp_path, impacts, cell):
        events = tmp_path / "events.csv"
        events.write_text(
            "author_id,group,kind,journal,year,count\n"
            "a,Phy,publication,J1,2010,2\na,Phy,citation,J2,2010,1\n"
            "b,Phy,publication,J2,2010,1\nb,Phy,citation,J2,2010,1\n"
        )
        (tmp_path / "impacts.csv").write_text("journal,year,indicator,value\n" + impacts)
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["compute", "--events", str(events), "--impacts", str(tmp_path / "impacts.csv"),
             "--family", "SJR", "--out", str(out)],
        )
        assert result.exit_code == EXIT_COMPUTE
        assert f"error: a: SJR cell {cell} is not finite (inf)" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_family_missing_from_impact_table_exit(self, runner, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--family", "SJR", "--family", "XYZ",
             "--out", str(out)],
        )
        assert result.exit_code == EXIT_UNKNOWN_NAME
        assert "impact table has no XYZ values; it has SJR, SNIP" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("family", ["", "  "], ids=["empty", "blank"])
    def test_blank_family_usage_error(self, runner, tmp_path, family):
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--family", family, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "indicator family names must not be blank" in result.output
        assert not out.exists()

    def test_bom_prefixed_inputs(self, runner, tmp_path):
        bom = []
        for name in ("author_events.csv", "impact_table.csv", "scalars.csv"):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + fixture_path(name).read_bytes())
            bom.append(str(path))
        for (events, impacts, scalars), out in ((bom, "bom"), ((EVENTS, IMPACTS, SCALARS), "plain")):
            run(runner, "compute", "--events", events, "--impacts", impacts, "--scalars", scalars,
                "--name", "golden", "--out", str(tmp_path / out))
        bom_bytes = (tmp_path / "bom/golden.profiles.csv").read_bytes()
        assert bom_bytes == (tmp_path / "plain/golden.profiles.csv").read_bytes()

    def test_repeated_header_column_exit(self, runner, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("author_id,group,kind,journal,year,count,year\na,G,publication,J1,2010,1,1999\n")
        out = tmp_path / "o"
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT
        assert "events: duplicate column 'year' in header" in result.output
        assert not out.exists()

    def test_repeated_json_key_exit(self, runner, tmp_path):
        events = tmp_path / "events.json"
        events.write_text('[{"author_id": "a", "group": "G", "kind": "publication", '
                          '"journal": "J1", "year": 2010, "count": 1, "year": 1999}]')
        out = tmp_path / "o"
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT
        assert "events: row 1: duplicate key 'year'" in result.output
        assert not out.exists()

    def test_case_duplicate_families_usage_error(self, runner, tmp_path):
        out = tmp_path / "o"
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(out)]
        result = runner.invoke(main, args + ["--family", "SJR", "--family", "sjr"])
        assert result.exit_code == 2
        assert "differ only in case" in result.output
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"families": ["SNIP", "Snip"]}))
        result = runner.invoke(main, args + ["--config", str(config)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_repeated_family_is_computed_once(self, runner, tmp_path, monkeypatch):
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--name", "ds"]
        run(runner, *args, "--family", "SJR", "--out", str(tmp_path / "once"))
        calls = []
        compute_profiles = cli.compute_profiles

        def counted(corpora, table, family, *args, **kwargs):
            calls.append(family)
            return compute_profiles(corpora, table, family, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_profiles", counted)
        run(runner, *args, "--family", "SJR", "--family", "SJR", "--out", str(tmp_path / "twice"))
        assert calls == ["SJR"]
        once = (tmp_path / "once" / "ds.profiles.csv").read_bytes()
        assert (tmp_path / "twice" / "ds.profiles.csv").read_bytes() == once

    def test_lone_surrogate_author_id_exit(self, runner, tmp_path):
        events = tmp_path / "events.json"
        row = {"author_id": "a\udc80", "group": "G", "kind": "publication", "journal": "J1", "year": 2010, "count": 1}
        events.write_text(json.dumps([row]), encoding="utf-8")
        out = tmp_path / "o"
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert "Error: events: row 1: author_id is not valid text, got 'a\\udc80'\n" in result.output
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["compute", "--impacts", IMPACTS])
        assert result.exit_code == 2

    def test_text_format_writes_csv_profiles(self, runner, tmp_path):
        out = tmp_path / "out"
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--name", "bocci"]
        run(runner, *args, "--out", str(out), "--format", "text")
        run(runner, *args, "--out", str(tmp_path / "csv"))
        assert [p.name for p in out.iterdir()] == ["bocci.profiles.csv"]
        assert (out / "bocci.profiles.csv").read_bytes() == (tmp_path / "csv" / "bocci.profiles.csv").read_bytes()

    def test_single_family_flag(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "compute",
            "--events", EVENTS,
            "--impacts", IMPACTS,
            "--out", str(out),
            "--family", "SJR",
            "--name", "solo",
        )
        rows = read_rows(out / "solo.profiles.csv")
        assert "p_sjr" in rows[0]
        assert "p_snip" not in rows[0]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"families": "SJR"}))
        run(runner, "compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(out),
            "--config", str(config), "--name", "solo_config")
        assert (out / "solo_config.profiles.csv").read_bytes() == (out / "solo.profiles.csv").read_bytes()

    def test_config_file_backs_flags(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "events": EVENTS,
                    "impacts": IMPACTS,
                    "out": str(tmp_path / "from_config"),
                    "name": "cfg",
                    "families": ["SJR"],
                }
            )
        )
        run(runner, "compute", "--config", str(config))
        assert (tmp_path / "from_config" / "cfg.profiles.csv").exists()
        # keys a command does not read are ignored, so the same file serves summarize
        config.write_text(json.dumps({**json.loads(config.read_text()), "profiles": PROFILES}))
        run(runner, "summarize", "--config", str(config))
        assert (tmp_path / "from_config" / "cfg.aggregate.csv").exists()

    def test_config_with_a_byte_order_mark_reads_as_without(self, runner, tmp_path):
        written = {}
        for name, bom in [("plain", b""), ("bom", b"\xef\xbb\xbf")]:
            config = tmp_path / f"{name}.json"
            config.write_bytes(bom + json.dumps({"profiles": PROFILES, "name": "cfg", "out": str(tmp_path / name)}).encode())
            run(runner, "summarize", "--config", str(config))
            written[name] = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        assert written["bom"] == written["plain"] and "cfg.aggregate.csv" in written["plain"]

    def test_config_that_repeats_a_key_exit_3_before_any_input_is_read(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"name": "a", "profiles": "absent.csv", "name": "b"}')
        out = tmp_path / "o"
        result = runner.invoke(main, ["summarize", "--config", str(config), "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert result.output == f"Error: config file {config}: duplicate key 'name'\n"
        assert not out.exists()

    def test_config_value_that_repeats_a_key_usage_error(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"families": {"a": 1, "a": 2}}')
        out = tmp_path / "o"
        result = runner.invoke(main, ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert (f"Error: config file {config}: families must be a string or a list of strings, "
                f"got an object that repeats the key 'a'\n") in result.output
        assert not out.exists()

    def test_flags_beat_config(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"events": EVENTS, "impacts": IMPACTS, "name": "cfg"}))
        out = tmp_path / "flagged"
        run(runner, "compute", "--config", str(config), "--out", str(out), "--name", "flag")
        assert (out / "flag.profiles.csv").exists()

    def test_env_out_dir_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PIRMETRICS_OUT", str(tmp_path / "env_out"))
        run(runner, "compute", "--events", EVENTS, "--impacts", IMPACTS, "--name", "env")
        assert (tmp_path / "env_out" / "env.profiles.csv").exists()
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": str(tmp_path / "config_out")}))
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--config", str(config), "--name", "env"]
        run(runner, *args)
        assert (tmp_path / "config_out" / "env.profiles.csv").exists()
        run(runner, *args, "--out", str(tmp_path / "flag_out"))
        assert (tmp_path / "flag_out" / "env.profiles.csv").exists()
        monkeypatch.delenv("PIRMETRICS_OUT")
        run(runner, "compute", "--events", EVENTS, "--impacts", IMPACTS, "--name", "env")
        assert (tmp_path / "out" / "env.profiles.csv").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("compute", {"format": "xml"}),
            ("summarize", {"format": "xml"}),
            ("compute", {"fail_fast": "maybe"}),
            ("compute", {"window": "bogus"}),
            ("compute", {"missing": "nearest:x"}),
            ("compute", {"window_policy": "open"}),
            ("compute", {"families": []}),
            ("compute", {"missing": "nearestfoo:2"}),
        ],
    )
    def test_bad_config_value_usage_error(self, runner, tmp_path, command, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        inputs = ["--events", EVENTS, "--impacts", IMPACTS] if command == "compute" else ["--profiles", PROFILES]
        result = runner.invoke(main, [command, *inputs, "--out", str(out), "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "Invalid value" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("window", "2_009:2013", "cannot parse year window from '2_009:2013'"),
            ("window", "2009:２０１３", "cannot parse year window from '2009:２０１３'"),
            ("missing", "nearest:1_0", "bad nearest-year distance in 'nearest:1_0'; expected nearest:K"),
            ("missing", "nearest:١", "bad nearest-year distance in 'nearest:١'; expected nearest:K"),
        ],
        ids=["window-separated", "window-fullwidth", "nearest-separated", "nearest-arabic-indic"],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_digits_follow_the_file_digit_rule(self, runner, tmp_path, key, value, message, source):
        # int() alone reads '_' separators and other scripts' digits, which every input file refuses
        out = tmp_path / "o"
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(out)]
        if source == "flag":
            args += [f"--{key}", value]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({key: value}))
            args += ["--config", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Error: Invalid value for '--{key}': {message}\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_reversed_window_usage_error(self, runner, tmp_path, source):
        out = tmp_path / "o"
        args = ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(out)]
        if source == "flag":
            args += ["--window", "2013:2009"]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"window": "2013:2009"}))
            args += ["--config", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Error: Invalid value for '--window': window start 2013 is after end 2009\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, args",
        [
            pytest.param("name", "x\ud800", ["summarize", "--profiles", PROFILES], id="name"),
            pytest.param("out", "o\ud800", ["summarize", "--profiles", PROFILES], id="out"),
            pytest.param("profiles", "p\ud800.csv", ["summarize"], id="input-path"),
            pytest.param("families", ["SJR", "S\udc80"], ["compute", "--events", EVENTS, "--impacts", IMPACTS],
                         id="families"),
        ],
    )
    def test_config_text_utf8_cannot_encode_usage_error(self, runner, tmp_path, monkeypatch, key, value, args):
        # a json escape may spell a lone surrogate, which no path, file name or output can hold
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        result = runner.invoke(main, [*args, "--config", str(path)])
        assert result.exit_code == 2, result.output
        text = value if isinstance(value, str) else value[-1]
        assert f"Error: config file {path}: {key} is not valid text, got {text!r}\n" in result.output
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "key, value, args, kind",
        [
            *[
                pytest.param("fail_fast", value, ["compute", "--events", EVENTS, "--impacts", IMPACTS],
                             "a boolean or a string", id=f"fail_fast-{name}")
                for name, value in [("int", 2), ("float", 0.5), ("object", {"a": 1}), ("list", [1])]
            ],
            pytest.param("name", ["a"], ["summarize", "--profiles", PROFILES], "a string", id="name-list"),
            pytest.param("name", True, ["summarize", "--profiles", PROFILES], "a string", id="name-bool"),
            pytest.param("out", ["a", "b"], ["summarize", "--profiles", PROFILES], "a string", id="out-list"),
            pytest.param("window", 2009, ["compute", "--events", EVENTS, "--impacts", IMPACTS], "a string",
                         id="window-int"),
            pytest.param("families", {"SJR": 1}, ["compute", "--events", EVENTS, "--impacts", IMPACTS],
                         "a string or a list of strings", id="families-object"),
            pytest.param("families", ["SJR", 1], ["compute", "--events", EVENTS, "--impacts", IMPACTS],
                         "a string or a list of strings", id="families-list-int"),
            *[
                pytest.param(key, 1, args, "a string", id=f"{key}-int")
                for key, args in [
                    ("events", ["compute", "--impacts", IMPACTS]),
                    ("impacts", ["compute", "--events", EVENTS]),
                    ("scalars", ["summarize", "--profiles", PROFILES]),
                    ("profiles", ["summarize"]),
                    ("format", ["summarize", "--profiles", PROFILES]),
                    ("missing", ["compute", "--events", EVENTS, "--impacts", IMPACTS]),
                    ("window_policy", ["compute", "--events", EVENTS, "--impacts", IMPACTS]),
                ]
            ],
        ],
    )
    def test_config_value_of_the_wrong_json_type_usage_error(self, runner, tmp_path, monkeypatch, key, value, args, kind):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        result = runner.invoke(main, [*args, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"Error: config file {path}: {key} must be {kind}, got {value!r}\n" in result.output
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("fail_fast, logged", [("false", ["a", "b"]), (False, ["a", "b"]), (True, [])])
    def test_config_fail_fast_is_a_boolean(self, runner, tmp_path, fail_fast, logged):
        events = tmp_path / "events.csv"
        events.write_text(
            "author_id,group,kind,journal,year,count\n"
            "a,Phy,publication,Journal of Missing Impacts,2011,4\n"
            "b,Phy,publication,Journal of Missing Impacts,2012,1\n"
        )
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fail_fast": fail_fast, "missing": "strict"}))
        result = runner.invoke(
            main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--config", str(config), "--out", str(tmp_path)]
        )
        assert result.exit_code == EXIT_MISSING_IMPACT
        # without fail-fast every author is tried and each failure is logged
        assert [line.split(":")[1].strip() for line in result.output.splitlines() if line.startswith("error:")] == logged

    def test_missing_input_file_exit(self, runner, tmp_path):
        missing = str(tmp_path / "absent.csv")
        result = runner.invoke(main, ["compute", "--events", missing, "--impacts", IMPACTS, "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert f"events: cannot read {missing}: " in result.output
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"events": EVENTS, "impacts": missing}))
        result = runner.invoke(main, ["compute", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert f"impact table: cannot read {missing}: " in result.output

    def test_non_string_json_field_exit(self, runner, tmp_path):
        events = tmp_path / "events.json"
        row = {"author_id": 5, "group": "Phy", "kind": "publication", "journal": "J1", "year": 2011, "count": 1}
        events.write_text(json.dumps([row]))
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert "row 1: author_id must be a string" in result.output


class TestSummarize:
    def test_fixture_reproduces_reductions(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "summarize", "--profiles", PROFILES, "--out", str(out), "--name", "ds")
        aggregate = {r["variable"]: r for r in read_rows(out / "ds.aggregate.csv")}
        assert float(aggregate["pi_sjr"]["pct_reduction"]) == pytest.approx(0.763, abs=0.005)
        assert float(aggregate["pi_snip"]["pct_reduction"]) == pytest.approx(0.803, abs=0.005)
        assert float(aggregate["pi_sjr"]["within_ss"]) == pytest.approx(9.972, abs=0.05)
        groups = read_rows(out / "ds.groups.csv")
        assert len(groups) == 4 * 17

    # sha256 of each summarize table on the bundled profiles; the bundled
    # scalars carry the profiles' own counters, so --scalars changes no byte
    GOLDEN = {
        "csv": {
            "groups": "1a8c048753525de7d50655e4aeccf524bb528879450d20938068c27095d70d61",
            "aggregate": "2b7d40f220e809f87a50ac63d2fd476495009f1614bfc1159c5f515169ecd152",
            "deltas": "24a62c7ff9ab60534b214ae406b9036094c8fa16805dbe43c4ef2e1b29d38321",
        },
        "json": {
            "groups": "6364622d24b27884643181e14cd3cf993ba88dec00881419e4cdee66cec9f9e8",
            "aggregate": "ad831dd8bbd5dad60b01fa75725ba80da3808541929025659c40c19a6ff28789",
            "deltas": "3ae7f111be609f70513fff69fa618ae4b4eb658a784e8b1b2084fd055bb00732",
        },
        "text": {
            "groups": "7abee9f88611664169b34e72c1606401ed7037d6b2d3b507ac1616abaf43181a",
            "aggregate": "88c7e0f2edeabaabe6c1350d32e7f82bf16f634f72d9c62c4a39ac5b7ea5675a",
            "deltas": "623c8fbb51859475db874b68fed0ee1ab8b4aeb4e87133560c2db985837d4e50",
        },
    }

    @pytest.mark.parametrize("scalars", [False, True], ids=["profiles", "scalars"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_fixture_tables_golden_bytes(self, runner, tmp_path, fmt, scalars):
        out = tmp_path / "out"
        extra = ["--scalars", SCALARS] if scalars else []
        run(runner, "summarize", "--profiles", PROFILES, "--format", fmt, "--out", str(out), "--name", "g", *extra)
        digests = {
            report: hashlib.sha256((out / f"g.{report}.{fmt}").read_bytes()).hexdigest()
            for report in self.GOLDEN[fmt]
        }
        assert digests == self.GOLDEN[fmt]
        assert sorted(p.name for p in out.iterdir()) == sorted(f"g.{report}.{fmt}" for report in self.GOLDEN[fmt])

    def test_single_group_skips_decomposition(self, runner, tmp_path):
        source = read_rows(Path(PROFILES))
        solo = [r for r in source if r["group"] == "Chem"]
        profiles = tmp_path / "solo.csv"
        with open(profiles, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(source[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(solo)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["summarize", "--profiles", str(profiles), "--out", str(out), "--name", "solo"],
        )
        assert result.exit_code == 0
        assert (out / "solo.groups.csv").exists()
        assert not (out / "solo.aggregate.csv").exists()

    def test_group_without_defined_values_exit(self, runner, tmp_path):
        source = read_rows(Path(PROFILES))
        for row in source:
            if row["group"] == "Chem":
                row["group"], row["r_sjr"] = "G1", "NA"
        profiles = tmp_path / "g1.csv"
        with open(profiles, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(source[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(source)
        out = tmp_path / "o"
        result = runner.invoke(main, ["summarize", "--profiles", str(profiles), "--out", str(out)])
        assert result.exit_code == EXIT_FEW_GROUPS
        assert "group 'G1': no defined values for 'r_sjr'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_cells_read_as_zero(self, runner, tmp_path, fmt):
        # json has no -0 text: its -0 is the integer 0, so both of its cells are -0.0
        p_cells = [0.5, 1.0, -0.0, 0.0, 2.0, "-0" if fmt == "csv" else -0.0, 0.0, 3.0]
        rows = [
            {"author_id": f"a{k}", "group": f"G{k % 2}", "papers": k + 1, "cites": k, "h": 1, "p_sjr": p}
            | {f"{f}_sjr": 1.0 for f in ("i", "r", "pi", "pr", "ir", "pi2r")}
            for k, p in enumerate(p_cells)
        ]
        profiles = tmp_path / f"negzero.{fmt}"
        if fmt == "json":
            profiles.write_text(json.dumps(rows), encoding="utf-8")
        else:
            with open(profiles, "w", newline="", encoding="utf-8") as f:
                writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        out = tmp_path / "out"
        run(runner, "summarize", "--profiles", str(profiles), "--out", str(out), "--name", "z")
        groups = {(r["group"], r["variable"]): r for r in read_rows(out / "z.groups.csv")}
        # each group holds a -0 cell and a 0.0 cell, and its minimum is zero
        assert [groups[(g, "p_sjr")]["min"] for g in ("G0", "G1")] == ["0.000", "0.000"]
        for path in out.iterdir():
            assert "-0.000" not in path.read_text(encoding="utf-8"), path.name

    def test_truncated_json_profiles_exit(self, runner, tmp_path):
        profiles = tmp_path / "bad.json"
        profiles.write_text('[{"author_id": "a", "group": "Phy", "p_sjr": 1.5')
        result = runner.invoke(main, ["summarize", "--profiles", str(profiles), "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert "profiles: invalid json" in result.output and "line 1" in result.output
        assert "Traceback" not in result.output

    def test_json_profiles_row_with_other_fields_exit(self, runner, tmp_path):
        profiles = tmp_path / "p.json"
        profiles.write_text(
            '[{"author_id": "a", "group": "G", "p_sjr": 1},'
            ' {"author_id": "b", "group": "G", "p_sjr": 1, "p_snip": 2, "i_snip": 3}]'
        )
        result = runner.invoke(main, ["summarize", "--profiles", str(profiles), "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert "profiles: row 2: fields differ from the first row's" in result.output

    def test_short_csv_profiles_row_exit(self, runner, tmp_path):
        lines = Path(PROFILES).read_text(encoding="utf-8").splitlines(keepends=True)
        profiles = tmp_path / "short.csv"
        profiles.write_text(lines[0] + lines[1] + lines[2].rsplit(",", 3)[0] + "\n")
        result = runner.invoke(main, ["summarize", "--profiles", str(profiles), "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert "line 3: short row" in result.output

    def test_missing_profiles_flag(self, runner):
        result = runner.invoke(main, ["summarize"])
        assert result.exit_code == 2

    def test_out_naming_a_file_usage_error(self, runner, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--out", str(blocker)])
        assert result.exit_code == 2
        assert f"cannot create output directory {blocker}: " in result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)

    def test_name_with_missing_directory_usage_error(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["summarize", "--profiles", PROFILES, "--out", str(out), "--name", "a/b"]
        )
        assert result.exit_code == 2
        assert f"cannot write {out / 'a' / 'b.groups.csv'}: " in result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_failed_write_removes_only_the_directories_it_made(self, runner, tmp_path):
        made = tmp_path / "a" / "b"
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (made, kept):
            result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--out", str(out), "--name", "sub/t"])
            assert result.exit_code == 2
            assert result.output == f"Error: cannot write {out / 'sub' / 't.groups.csv'}: No such file or directory\n"
        assert sorted(tmp_path.iterdir()) == [kept] and list(kept.iterdir()) == []

    def test_failed_write_keeps_a_directory_another_run_has_filled(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b"

        def fill_and_fail(texts):
            (out / "other.csv").write_text("another run\n")
            raise OSError(28, "No space left on device", str(out / "t.groups.csv"))

        monkeypatch.setattr(cli, "save_texts", fill_and_fail)
        result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--out", str(out), "--name", "t"])
        assert result.exit_code == 2 and "No space left on device" in result.output
        assert [p.name for p in out.iterdir()] == ["other.csv"]


class TestCorrelate:
    def test_pearson_medicine_cell(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "correlate",
            "--profiles", PROFILES,
            "--scalars", SCALARS,
            "--out", str(out),
            "--name", "ds",
            "--method", "pearson",
        )
        rows = read_rows(out / "ds.pearson.csv")
        cell = next(
            r for r in rows if r["group"] == "Med" and r["row"] == "papers" and r["column"] == "cites"
        )
        assert float(cell["r"]) == pytest.approx(0.92, abs=0.02)
        assert cell["mark"] == "c"

    def test_spearman_medicine_cell(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "correlate",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--method", "spearman",
        )
        rows = read_rows(out / "ds.spearman.csv")
        cell = next(
            r for r in rows if r["group"] == "Med" and r["row"] == "papers" and r["column"] == "cites"
        )
        assert float(cell["r"]) == pytest.approx(0.57, abs=0.02)

    def test_invalid_method_usage_error(self, runner):
        result = runner.invoke(main, ["correlate", "--profiles", PROFILES, "--method", "kendall"])
        assert result.exit_code == 2

    def test_unknown_variable_exit(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "correlate",
                "--profiles", PROFILES,
                "--out", str(tmp_path / "o"),
                "--variable", "papers",
                "--variable", "zeta_sjr",
            ],
        )
        assert result.exit_code == EXIT_UNKNOWN_NAME

    @pytest.mark.parametrize("variables", [["p_sjr"], ["p_sjr", "p_sjr"]], ids=["one", "repeated"])
    def test_fewer_than_two_distinct_variables_usage_error(self, runner, tmp_path, variables):
        out = tmp_path / "out"
        args = ["correlate", "--profiles", PROFILES, "--out", str(out)]
        result = runner.invoke(main, args + [a for v in variables for a in ("--variable", v)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "at least two distinct variables required, got p_sjr" in result.output
        assert not out.exists()

    def test_text_format_matrix(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "correlate",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--format", "text",
        )
        text = (out / "ds.pearson.txt").read_text()
        assert "Chem (pearson)" in text
        assert "^c" in text

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_values_near_the_float_maximum(self, runner, tmp_path, method):
        # two Chem authors at p_sjr = 1e308: the pearson sums of that column overflowed
        with open(PROFILES, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        group, p_sjr = rows[0].index("group"), rows[0].index("p_sjr")
        for row in [row for row in rows if row[group] == "Chem"][:2]:
            row[p_sjr] = "1e308"
        path = tmp_path / "huge.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        run(runner, "correlate", "--profiles", str(path), "--out", str(out), "--method", method)
        cells = read_rows(out / f"huge.{method}.csv")
        assert len(cells) == 4 * 21
        assert all(math.isfinite(float(cell["r"])) for cell in cells)


class TestReport:
    def test_boxplot_rows(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "report",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--variable", "pi_sjr",
            "--variable", "pi_snip",
        )
        rows = read_rows(out / "ds.boxplot.csv")
        assert len(rows) == 8

    def test_scatter_120_points(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "report",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--kind", "scatter",
            "--x", "p_sjr",
            "--y", "i_sjr",
        )
        rows = read_rows(out / "ds.scatter.csv")
        assert len(rows) == 120
        assert len({r["group"] for r in rows}) == 4

    def test_unknown_variable_lists_available(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "report",
                "--profiles", PROFILES,
                "--out", str(tmp_path / "o"),
                "--variable", "bogus",
            ],
        )
        assert result.exit_code == EXIT_UNKNOWN_NAME
        assert "pi_sjr" in result.output

    def test_svg_label_with_a_control_character_is_well_formed(self, runner, tmp_path):
        profiles = tmp_path / "control.csv"
        profiles.write_text("author_id,group,papers,cites,h,p_sjr\na,G\x01H,1,1,1,1\nb,G\x01H,2,2,1,2\n"
                            "c,K,3,3,1,3\n", encoding="utf-8")
        out = tmp_path / "out"
        run(runner, "report", "--profiles", str(profiles), "--variable", "p_sjr", "--svg", "--out", str(out))
        root = ElementTree.parse(out / "control.boxplot.svg").getroot()
        assert [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")] == ["G\ufffdH p_sjr", "K p_sjr"]

    @pytest.mark.parametrize(
        "name, text, args, message",
        [
            pytest.param("p.csv", "author_id,group,papers,cites,h,p_sjr,p_SJR\na,G,1,1,1,1,2\n",
                         ["--kind", "scatter", "--x", "p_sjr", "--y", "h"],
                         "profiles: line 1: columns 'p_sjr' and 'p_SJR' spell one family's suffix in two cases",
                         id="csv"),
            pytest.param("p.json", json.dumps([{"author_id": "a", "group": "G", "p_foo": 1, "p_Foo": 2}]), [],
                         "profiles: row 1: columns 'p_foo' and 'p_Foo' spell one family's suffix in two cases",
                         id="json"),
            pytest.param("p.json", json.dumps([{"author_id": "a", "group": "G\ud800", "p_sjr": 1}]), [],
                         "profiles: row 1: group is not valid text, got 'G\\ud800'", id="lone-surrogate"),
            # a family column's suffix names the family in every variable and output header
            pytest.param("p.json", json.dumps([{"author_id": a, "group": g, "p_x\ud800": 1} for a, g in ("aG", "bH")]),
                         [], "profiles: row 1: column is not valid text, got 'p_x\\ud800'", id="lone-surrogate-key"),
        ],
    )
    def test_profiles_that_no_output_can_show_exit_3(self, runner, tmp_path, name, text, args, message):
        profiles = tmp_path / name
        profiles.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["report", "--profiles", str(profiles), *args, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert f"Error: {message}\n" in result.output
        assert not out.exists()

    def test_svg_written(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "report",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--variable", "pi_sjr",
            "--svg",
        )
        svg = (out / "ds.boxplot.svg").read_text()
        assert svg.startswith("<svg")

    @pytest.mark.parametrize(
        "cell, message",
        [
            pytest.param("nan", "line 2: non-finite i_sjr", id="nan"),
            pytest.param("inf", "line 2: non-finite i_sjr", id="inf"),
            pytest.param("-2.5", "profiles: line 2: negative i_sjr -2.5", id="negative"),
        ],
    )
    def test_non_finite_profiles_cell_exit(self, runner, tmp_path, cell, message):
        source = read_rows(Path(PROFILES))
        source[0]["i_sjr"] = cell
        profiles = tmp_path / "bad.csv"
        with open(profiles, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(source[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(source)
        out = tmp_path / "o"
        for kind in ("scatter", "ordered"):
            result = runner.invoke(
                main,
                ["report", "--profiles", str(profiles), "--out", str(out), "--kind", kind,
                 "--x", "p_sjr", "--y", "i_sjr", "--order-family", "SJR"],
            )
            assert result.exit_code == EXIT_INPUT
            assert message in result.output
        assert not out.exists()

    def test_ordered_kind(self, runner, tmp_path):
        out = tmp_path / "out"
        run(
            runner,
            "report",
            "--profiles", PROFILES,
            "--out", str(out),
            "--name", "ds",
            "--kind", "ordered",
            "--order-family", "SJR",
        )
        rows = read_rows(out / "ds.ordered.csv")
        assert len(rows) == 120
        impact = [float(r["i_sjr"]) for r in rows]
        assert impact == sorted(impact, reverse=True)

    def test_ordered_without_a_family_exits_7(self, runner, tmp_path):
        profiles = tmp_path / "counters.csv"
        profiles.write_text("author_id,group,papers,cites,h\na,G1,1,2,1\nb,G1,2,3,1\nc,G2,3,4,2\n", encoding="utf-8")
        out = tmp_path / "out"
        args = ["report", "--profiles", str(profiles), "--out", str(out)]
        result = run(runner, *args, "--kind", "ordered", expect=EXIT_UNKNOWN_NAME)
        assert "the profiles hold no indicator family" in result.output
        assert not out.exists()
        run(runner, *args, "--kind", "boxplot")  # the counters alone still make a boxplot

    def test_repeated_variable_writes_its_rows_once(self, runner, tmp_path):
        args = ["report", "--profiles", PROFILES, "--name", "ds", "--variable", "pi_sjr", "--variable", "h"]
        run(runner, *args, "--out", str(tmp_path / "once"))
        run(runner, *args, "--variable", "pi_sjr", "--out", str(tmp_path / "twice"))
        once = (tmp_path / "once" / "ds.boxplot.csv").read_text(encoding="utf-8")
        assert (tmp_path / "twice" / "ds.boxplot.csv").read_text(encoding="utf-8") == once
        assert len(once.splitlines()) == 1 + 4 * 2

    @pytest.fixture()
    def pi_sjr_all_na(self, tmp_path):
        """The fixture profiles with every author's pi_sjr cell NA."""
        source = read_rows(Path(PROFILES))
        for row in source:
            row["pi_sjr"] = ""
        profiles = tmp_path / "na.csv"
        with open(profiles, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(source[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(source)
        return str(profiles)

    def test_a_variable_na_for_every_author_has_no_boxplot_rows(self, runner, tmp_path, pi_sjr_all_na):
        out = tmp_path / "out"
        run(runner, "report", "--profiles", pi_sjr_all_na, "--variable", "pi_sjr", "--variable", "p_sjr",
            "--out", str(out))
        assert [r["variable"] for r in read_rows(out / "na.boxplot.csv")] == ["p_sjr"] * 4  # one row per group

    def test_svg_of_no_boxplot_rows_is_empty(self, runner, tmp_path, pi_sjr_all_na):
        out = tmp_path / "out"
        run(runner, "report", "--profiles", pi_sjr_all_na, "--variable", "pi_sjr", "--svg", "--out", str(out))
        assert read_rows(out / "na.boxplot.csv") == []
        svg = (out / "na.boxplot.svg").read_text(encoding="utf-8")
        assert svg == '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"></svg>\n'
        assert ElementTree.fromstring(svg).attrib == {"width": "0", "height": "0"}

    def test_repeated_kind_is_done_once(self, runner, tmp_path):
        args = ["report", "--profiles", PROFILES, "--name", "ds", "--svg"]
        run(runner, *args, "--out", str(tmp_path / "once"))
        result = run(runner, *args, "--kind", "boxplot", "--kind", "boxplot", "--out", str(tmp_path / "twice"))
        wrote = [line for line in result.output.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {tmp_path / 'twice' / name}" for name in ("ds.boxplot.csv", "ds.boxplot.svg")]
        for name in ("ds.boxplot.csv", "ds.boxplot.svg"):
            assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()

    def test_text_format_writes_aligned_tables(self, runner, tmp_path):
        out = tmp_path / "out"
        args = ["report", "--profiles", PROFILES, "--name", "ds", "--kind", "boxplot", "--kind", "ordered",
                "--order-family", "SJR"]
        run(runner, *args, "--out", str(out), "--format", "text")
        run(runner, *args, "--out", str(tmp_path / "csv"))
        assert sorted(p.name for p in out.iterdir()) == ["ds.boxplot.text", "ds.ordered.text"]
        for kind in ("boxplot", "ordered"):
            with open(tmp_path / "csv" / f"ds.{kind}.csv", newline="", encoding="utf-8") as f:
                csv_rows = list(csv.reader(f))
            lines = (out / f"ds.{kind}.text").read_text(encoding="utf-8").splitlines()
            # the dashed rule under the header marks each column's span
            spans = [m.span() for m in re.finditer("-+", lines[1])]
            assert len(spans) == len(csv_rows[0])
            cells = [[line[a:b].strip() for a, b in spans] for line in [lines[0], *lines[2:]]]
            assert cells == csv_rows


class TestPartialFamily:
    """A family is found from any of its columns; the columns the header lacks read as NA."""

    @staticmethod
    def profiles(tmp_path: Path, kind: str) -> str:
        source = read_rows(Path(PROFILES))
        if kind == "p_sjr-all-NA":
            for row in source:
                row["p_sjr"] = "NA"
        else:
            source = [{k: row[k] for k in ("author_id", "group", "papers", "cites", "h", "i_sjr")} for row in source]
        if kind == "json":
            for row in source:
                row.update({k: int(row[k]) for k in ("papers", "cites", "h")}, i_sjr=float(row["i_sjr"]))
            path = tmp_path / "partial.json"
            path.write_text(json.dumps(source), encoding="utf-8")
            return str(path)
        path = tmp_path / "partial.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(source[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(source)
        return str(path)

    @pytest.mark.parametrize("kind", ["csv", "json", "p_sjr-all-NA"])
    def test_a_family_without_its_p_column(self, runner, tmp_path, kind):
        profiles = self.profiles(tmp_path, kind)
        args = ["correlate", "--name", "ds", "--variable", "i_sjr", "--variable", "h"]
        run(runner, *args, "--profiles", profiles, "--out", str(tmp_path / "partial"))
        run(runner, *args, "--profiles", PROFILES, "--out", str(tmp_path / "whole"))
        partial = (tmp_path / "partial" / "ds.pearson.csv").read_text(encoding="utf-8")
        assert partial == (tmp_path / "whole" / "ds.pearson.csv").read_text(encoding="utf-8")
        out = tmp_path / "summaries"
        result = run(runner, "summarize", "--profiles", profiles, "--out", str(out), expect=EXIT_FEW_GROUPS)
        assert "no defined values for 'p_sjr'" in result.output
        assert not out.exists()


class TestPipelineComposition:
    def test_compute_then_summarize_matches_direct_fixture_run(self, runner, tmp_path):
        out1 = tmp_path / "stage"
        run(
            runner,
            "compute",
            "--events", EVENTS,
            "--impacts", IMPACTS,
            "--scalars", SCALARS,
            "--out", str(out1),
            "--name", "bocci",
        )
        # the computed profile feeds summarize without modification
        profiles = out1 / "bocci.profiles.csv"
        out2 = tmp_path / "summary"
        result = runner.invoke(
            main,
            ["summarize", "--profiles", str(profiles), "--out", str(out2), "--name", "bocci"],
        )
        # one group only: summaries written, decomposition skipped
        assert result.exit_code == 0
        assert (out2 / "bocci.groups.csv").exists()

    def test_idempotent_byte_identical_outputs(self, runner, tmp_path):
        outputs = []
        for label in ("first", "second"):
            out = tmp_path / label
            run(
                runner,
                "compute",
                "--events", EVENTS,
                "--impacts", IMPACTS,
                "--scalars", SCALARS,
                "--out", str(out),
                "--name", "ds",
            )
            run(runner, "summarize", "--profiles", PROFILES, "--out", str(out), "--name", "ds")
            run(runner, "correlate", "--profiles", PROFILES, "--out", str(out), "--name", "ds")
            tree = {
                p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            outputs.append(tree)
        assert outputs[0] == outputs[1]


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


class TestCountBound:
    """A count above 2**53, the largest integer a float holds exactly, is an input error."""

    FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])
    COUNTS = pytest.mark.parametrize("count", [2**53 + 1, 10**400], ids=["2**53+1", "401-digit"])

    @staticmethod
    def location(fmt: str, row: int) -> str:
        return f"line {row + 1}" if fmt == "csv" else f"row {row}"

    @FORMATS
    @COUNTS
    def test_profiles_papers(self, runner, tmp_path, fmt, count):
        rows = [{k: (v if v != "NA" else None) for k, v in r.items()} for r in read_rows(Path(PROFILES))]
        rows[1]["papers"] = count
        profiles = write_table(tmp_path / f"profiles.{fmt}", rows)
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", profiles, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT
        assert f"profiles: {self.location(fmt, 2)}: papers must be <= 2**53, got {count}" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @FORMATS
    @COUNTS
    def test_scalars(self, runner, tmp_path, fmt, count):
        rows = read_rows(Path(SCALARS))
        rows[2]["cites"] = count
        scalars = write_table(tmp_path / f"scalars.{fmt}", rows)
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--scalars", scalars, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT
        assert f"scalars: {self.location(fmt, 3)}: cites must be <= 2**53, got {count}" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @FORMATS
    @COUNTS
    def test_event_count(self, runner, tmp_path, fmt, count):
        rows = read_rows(Path(EVENTS))[:5]
        rows[3]["count"] = count
        events = write_table(tmp_path / f"events.{fmt}", rows)
        out = tmp_path / "out"
        result = runner.invoke(main, ["compute", "--events", events, "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT
        assert f"events: {self.location(fmt, 4)}: event count must be <= 2**53, got {count} (" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_json_count_beyond_the_digit_limit(self, runner, tmp_path):
        # python refuses to read an integer of more than 4300 digits at all
        events = tmp_path / "events.json"
        events.write_text(
            '[{"author_id": "a", "group": "G", "kind": "publication", "journal": "J1", "year": 2010, '
            f'"count": {"9" * 5000}}}]'
        )
        result = runner.invoke(main, ["compute", "--events", str(events), "--impacts", IMPACTS, "--out", str(tmp_path)])
        assert result.exit_code == EXIT_INPUT
        assert "events: invalid json: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_event_count_at_the_bound_computes(self, runner, tmp_path):
        rows = read_rows(Path(EVENTS))[:5]
        rows[0]["count"] = 2**53
        events = write_table(tmp_path / "events.csv", rows)
        run(runner, "compute", "--events", events, "--impacts", IMPACTS, "--out", str(tmp_path / "out"))


class TestOptionSets:
    TABLE = ["scalars", "profiles", "out", "format", "config", "name"]
    OPTIONS = {
        "compute": ["events", "impacts", "scalars", "out", "format", "window", "families",
                    "missing", "window_policy", "fail_fast", "config", "name"],
        "summarize": TABLE,
        "correlate": TABLE + ["method", "variables"],
        "report": TABLE + ["kinds", "variables", "x_var", "y_var", "order_family", "svg"],
    }

    def test_each_command_takes_only_the_options_it_reads(self):
        options = {
            name: [p.name for p in command.params if p.name != "help"]
            for name, command in main.commands.items()
        }
        assert options == self.OPTIONS
        assert sum(len(names) for names in options.values()) == 38

    @pytest.mark.parametrize(
        "args",
        [
            ["summarize", "--profiles", PROFILES, "--window", "2010:2014"],
            ["summarize", "--profiles", PROFILES, "--events", "/nonexistent.csv"],
            ["correlate", "--profiles", PROFILES, "--family", "SJR"],
            ["report", "--profiles", PROFILES, "--missing", "drop"],
            ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--profiles", PROFILES],
        ],
    )
    def test_unread_option_is_rejected(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize("command", ["correlate", "report"])
    def test_config_keys_outside_the_settings_are_ignored(self, runner, tmp_path, command):
        # method, variables, svg and help exist only as flags; a config cannot set them
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"method": "spearman", "variables": "x", "svg": True, "help": True}))
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        run(runner, command, "--profiles", PROFILES, "--out", str(plain), "--name", "ds")
        run(runner, command, "--profiles", PROFILES, "--out", str(configured), "--name", "ds",
            "--config", str(config))
        files = sorted(p.name for p in plain.iterdir())
        assert files and sorted(p.name for p in configured.iterdir()) == files
        assert all((configured / f).read_bytes() == (plain / f).read_bytes() for f in files)


class TestSettingsFromMarks:
    """A config's keys and their json types follow from the options marked as settings, in any group."""

    @staticmethod
    def invoke(runner, tmp_path, config):
        seen = []

        @click.group(cls=Pipeline)
        def toy():
            pass

        @toy.command()
        @click.option("--loud", cls=_Setting, is_flag=True)
        @click.option("--tag", "tags", cls=_Setting, multiple=True)
        @click.option("--note", type=str)
        @config_option
        def step(loud, tags, note):
            seen.append((loud, tags, note))
            return str(tmp_path / "out"), "toy", []

        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return runner.invoke(toy, ["step", "--config", str(path)]), seen

    @pytest.mark.parametrize(
        "config, read",
        [
            ({"loud": True, "tags": "a"}, (True, ("a",), None)),
            ({"loud": "false", "tags": ["a", "b"]}, (False, ("a", "b"), None)),
            # an option without the mark is no config key, so its value is neither read nor checked
            ({"note": 1, "tags": None}, (False, (), None)),
        ],
    )
    def test_config_sets_the_marked_options(self, runner, tmp_path, config, read):
        result, seen = self.invoke(runner, tmp_path, config)
        assert result.exit_code == 0, result.output
        assert seen == [read]

    @pytest.mark.parametrize(
        "key, value, kind",
        [("loud", 2, "a boolean or a string"), ("tags", ["a", 1], "a string or a list of strings")],
    )
    def test_json_type_follows_the_kind_of_option(self, runner, tmp_path, key, value, kind):
        result, seen = self.invoke(runner, tmp_path, {key: value})
        assert result.exit_code == 2, result.output
        assert f"Error: config file {tmp_path / 'run.json'}: {key} must be {kind}, got {value!r}\n" in result.output
        assert seen == []


class TestExitCodeByKind:
    """An error's exit code follows from its kind, whichever command meets it."""

    @pytest.mark.parametrize(
        "error, code",
        [
            pytest.param(IngestError("bad row"), EXIT_INPUT, id="ingest"),
            pytest.param(MissingImpactError("J1", 2010, "SJR"), EXIT_MISSING_IMPACT, id="missing-impact"),
            pytest.param(EngineError("bad cell"), EXIT_COMPUTE, id="engine"),
            pytest.param(GroupError("too few groups"), EXIT_FEW_GROUPS, id="group"),
            pytest.param(ReportError("unknown variable"), EXIT_UNKNOWN_NAME, id="report"),
            pytest.param(StatsError("describe overflows the float range"), EXIT_COMPUTE, id="stats"),
        ],
    )
    @pytest.mark.parametrize("command", ["summarize", "correlate", "report"])
    def test_each_library_error_has_one_code(self, runner, tmp_path, monkeypatch, command, error, code):
        def fail(*args, **kwargs):
            raise error

        for name in ("group_summary", "correlation_report", "figure_data"):
            monkeypatch.setattr(rpt, name, fail)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--profiles", PROFILES, "--out", str(out)])
        assert result.exit_code == code
        assert f"Error: {error}" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @pytest.mark.parametrize(
        "cause, code",
        [(MissingImpactError("J1", 2010, "SJR"), EXIT_MISSING_IMPACT), (EngineError("bad cell"), EXIT_COMPUTE)],
        ids=["missing-impact", "engine"],
    )
    def test_wrapped_error_takes_its_cause_code(self, runner, tmp_path, monkeypatch, cause, code):
        # --fail-fast raises the author's error wrapped in an EngineError
        def fail(*args, **kwargs):
            raise EngineError(f"author 'a': {cause}") from cause

        monkeypatch.setattr(cli, "compute_profiles", fail)
        result = runner.invoke(main, ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(tmp_path / "o")])
        assert result.exit_code == code
        assert f"Error: author 'a': {cause}" in result.output

    @pytest.mark.parametrize(
        "failures, code",
        [
            ([("a", EngineError("bad cell")), ("b", MissingImpactError("J1", 2010, "SJR"))], EXIT_MISSING_IMPACT),
            ([("a", EngineError("bad cell"))], EXIT_COMPUTE),
        ],
        ids=["any-missing-impact", "engine-only"],
    )
    def test_batch_error_logs_each_author(self, runner, tmp_path, monkeypatch, failures, code):
        def fail(*args, **kwargs):
            raise BatchError(failures, [])

        monkeypatch.setattr(cli, "compute_profiles", fail)
        result = runner.invoke(main, ["compute", "--events", EVENTS, "--impacts", IMPACTS, "--out", str(tmp_path / "o")])
        assert result.exit_code == code
        logged = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert logged == [f"error: {author}: {err}" for author, err in failures]

    def test_row_without_group_exits_6_in_every_command(self, runner, tmp_path):
        source = read_rows(Path(PROFILES))
        source[3]["group"] = ""
        profiles = write_table(tmp_path / "nogroup.csv", source)
        for command in ("summarize", "correlate"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--profiles", profiles, "--out", str(out)])
            assert result.exit_code == EXIT_FEW_GROUPS, command
            assert f"author {source[3]['author_id']!r} has no group" in result.output
            assert not out.exists()

    @pytest.mark.parametrize(
        "axes", [[], ["--x", "p_sjr"], ["--y", "i_sjr"]], ids=["neither", "x-only", "y-only"]
    )
    def test_scatter_without_both_axes_is_a_usage_error(self, runner, tmp_path, axes):
        out = tmp_path / "out"
        out.mkdir()
        for kinds in (["--kind", "scatter"], ["--kind", "boxplot", "--kind", "scatter"]):
            result = runner.invoke(main, ["report", "--profiles", PROFILES, "--out", str(out), *kinds, *axes])
            assert result.exit_code == 2, result.output
            assert "--kind scatter needs both --x and --y" in result.output
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_scatter_with_one_variable_for_both_axes_is_a_usage_error(self, runner, tmp_path, fmt):
        out = tmp_path / "out"
        out.mkdir()
        # a missing profiles file as well: the flags are checked before any input is loaded
        for profiles in (PROFILES, str(tmp_path / "missing.csv")):
            result = runner.invoke(main, [
                "report", "--profiles", profiles, "--out", str(out), "--format", fmt,
                "--kind", "boxplot", "--kind", "scatter", "--x", "p_sjr", "--y", "p_sjr",
            ])
            assert result.exit_code == 2, result.output
            assert "--kind scatter needs both --x and --y, naming two different variables" in result.output
            assert list(out.iterdir()) == []


class TestUnreadableInputs:
    """An input that cannot be read or parsed (a directory, a missing path, a csv that is not UTF-8,
    an empty csv, json nested too deep) exits 3 with no traceback."""

    @staticmethod
    def input_args(role: str, path: str) -> list[str]:
        if role == "profiles":
            return ["summarize", "--profiles", path]
        if role == "config":
            return ["summarize", "--profiles", PROFILES, "--config", path]
        inputs = {"events": EVENTS, "impacts": IMPACTS, "scalars": SCALARS, role: path}
        return ["compute", *(a for r, path in inputs.items() for a in (f"--{r}", path))]

    MESSAGES = {
        "events": "events: cannot read {path}: ",
        "impacts": "impact table: cannot read {path}: ",
        "scalars": "scalars: cannot read {path}: ",
        "profiles": "profiles: cannot read {path}: ",
        "config": "config file {path} cannot be read: ",
    }

    LABELS = {"events": "events", "impacts": "impact table", "scalars": "scalars", "profiles": "profiles"}

    @pytest.mark.parametrize(
        "role, name",
        [
            *(pytest.param(role, "adir", id=role) for role in MESSAGES),
            *(pytest.param(role, "absent.csv", id=f"{role}-missing") for role in MESSAGES),
        ],
    )
    def test_directory_input_exit(self, runner, tmp_path, role, name):
        path = tmp_path / name
        if name == "adir":
            path.mkdir()
        out = tmp_path / "out"
        result = runner.invoke(main, [*self.input_args(role, str(path)), "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert self.MESSAGES[role].format(path=path) in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @pytest.mark.parametrize("role", MESSAGES)
    def test_deeply_nested_json_exit(self, runner, tmp_path, role):
        # the json decoder recurses once per level: this is deeper than the recursion limit
        # (1000 Python frames, and up to 10000 C levels from Python 3.12 on)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        result = runner.invoke(main, [*self.input_args(role, str(path)), "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        invalid = f"config file {path} is not valid json" if role == "config" else f"{self.LABELS[role]}: invalid json"
        assert f"Error: {invalid}: maximum recursion depth exceeded" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @pytest.mark.parametrize("role", LABELS)
    def test_empty_csv_exit(self, runner, tmp_path, role):
        path = tmp_path / "empty.csv"
        path.write_text("")
        out = tmp_path / "out"
        result = runner.invoke(main, [*self.input_args(role, str(path)), "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert f"Error: {self.LABELS[role]}: empty input, header row required\n" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{not json", "is not valid json: Expecting property name enclosed in double quotes", id="not-json"),
            pytest.param('["window", "2009:2013"]', "must hold a json object", id="array"),
        ],
    )
    def test_config_that_is_no_json_object_exit(self, runner, tmp_path, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(main, [*self.input_args("config", str(config)), "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert f"Error: config file {config} {message}" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_header_only_profiles_exit_5(self, runner, tmp_path):
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("author_id,group,papers,cites,h,p_sjr\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", str(profiles), "--out", str(out)])
        assert result.exit_code == EXIT_NO_AUTHORS, result.output
        assert result.output == "Error: no authors in profiles input\n"
        assert not out.exists()

    @staticmethod
    def with_bad_line(path: Path, lines: list[str], bad: int) -> str:
        """Write the lines, with the bytes ff fe in line number bad (the header is line 1)."""
        data = [line.encode("utf-8") for line in lines]
        data[bad - 1] = b"\xff\xfe" + data[bad - 1]
        # past the text layer's first decoded chunk, where a reader's line count is no guide
        assert len(b"".join(data[:bad - 1])) > 8192
        path.write_bytes(b"".join(data))
        return str(path)

    def test_non_utf8_events_name_their_line(self, runner, tmp_path):
        rows = [f"Author {k % 20:02d},G{k % 20 % 3},publication,Journal of Tests {k % 7},2010,1\n" for k in range(400)]
        events = self.with_bad_line(tmp_path / "events.csv", ["author_id,group,kind,journal,year,count\n", *rows], 301)
        out = tmp_path / "out"
        result = runner.invoke(main, ["compute", "--events", events, "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert "events: line 301: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_non_utf8_scalars_name_their_line(self, runner, tmp_path):
        rows = [f"An author with a long name {k:04d},10,20,3\n" for k in range(400)]
        scalars = self.with_bad_line(tmp_path / "scalars.csv", ["author_id,papers,cites,h\n", *rows], 301)
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--scalars", scalars, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert "scalars: line 301: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_non_utf8_json_events_name_their_line(self, runner, tmp_path):
        # a json input is decoded as text first, so it is reported as a csv is, not as invalid json
        rows = [json.dumps({"author_id": f"Author {k % 20:02d}", "group": f"G{k % 20 % 3}", "kind": "publication",
                            "journal": f"Journal of Tests {k % 7}", "year": 2010, "count": 1}) for k in range(400)]
        lines = ["[\n", *(f"{row},\n" for row in rows[:-1]), f"{rows[-1]}\n", "]\n"]
        events = self.with_bad_line(tmp_path / "events.json", lines, 301)
        out = tmp_path / "out"
        result = runner.invoke(main, ["compute", "--events", events, "--impacts", IMPACTS, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT, result.output
        assert "events: line 301: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()


class TestCollectorPause:
    """A command runs with the cyclic collector off, and leaves it as the caller had it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize(
        "args, code",
        [
            pytest.param(["--events", EVENTS], 0, id="success"),
            pytest.param(["--events", "absent.csv"], EXIT_INPUT, id="library-error"),
            pytest.param(["--events", EVENTS, "--missing", "sometimes"], 2, id="usage-error"),
        ],
    )
    def test_state_restored_on_every_exit(self, runner, tmp_path, monkeypatch, enabled, args, code):
        seen = []
        real = cli.load_events

        def load_events(*a, **kw):
            seen.append(gc.isenabled())
            return real(*a, **kw)

        monkeypatch.setattr(cli, "load_events", load_events)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        result = runner.invoke(main, ["compute", *args, "--impacts", IMPACTS, "--out", str(tmp_path / "o")])
        assert gc.isenabled() is enabled
        assert result.exit_code == code, result.output
        assert seen == ([] if code == 2 else [False])


def test_version_runs_from_source(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"pirmetrics, version {pirmetrics.__version__}\n" == "pirmetrics, version 0.1.0\n"


def test_star_import_binds_no_submodule():
    # the package's submodules io, engine, model and stats would shadow a caller's own names
    namespace: dict = {}
    exec("import io\nfrom pirmetrics import *", namespace)
    assert namespace["io"] is sys.modules["io"]
    assert not {"engine", "io", "model", "stats"} & set(pirmetrics.__all__)
    assert {"compute_profile", "load_events", "pearson", "IndicatorProfile"} <= set(pirmetrics.__all__)


def test_cli_import_loads_neither_dataclasses_nor_locale():
    # only what pirmetrics.cli adds after click counts, so a click that imports either itself passes
    code = (
        "import sys, click; before = set(sys.modules); import pirmetrics.cli; "
        "print(sorted({'dataclasses', 'locale'} & (set(sys.modules) - before)))"
    )
    src = Path(pirmetrics.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# what no command on the fixtures runs: xml.sax.saxutils alone would pull in urllib.request and,
# through it, http, email, ssl, socket and hashlib; json serves json files and --config only
UNRUN = ("xml", "urllib", "http", "email", "ssl", "socket", "hashlib", "json", "dataclasses")


def loaded_unrun(code: str, *args: str) -> list[str]:
    """The UNRUN modules that running code, in a cold process from src, adds to those loaded at start-up."""
    code = (f"import sys; before = set(sys.modules)\n{code}\n"
            f"print(*sorted(m for m in set(sys.modules) - before if m.partition('.')[0] in {UNRUN!r}))")
    src = Path(pirmetrics.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_unrun_module():
    assert loaded_unrun("import pirmetrics.cli") == []


@pytest.mark.parametrize(
    "command, args",
    [
        ("compute", ["--events", EVENTS, "--impacts", IMPACTS]),
        ("summarize", ["--profiles", PROFILES]),
        ("correlate", ["--profiles", PROFILES, "--method", "spearman", "--format", "text"]),
        ("report", ["--profiles", PROFILES, "--kind", "boxplot", "--kind", "ordered", "--svg"]),
    ],
    ids=["compute", "summarize", "correlate", "report"],
)
def test_cold_fixture_command_loads_only_what_it_runs(tmp_path, command, args):
    # each command with the flags the benchmark's fixtures workload gives it
    code = (
        "from pirmetrics.cli import main\n"
        "try:\n    main(args=sys.argv[1:], prog_name='pirmetrics')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )
    assert loaded_unrun(code, command, *args, "--scalars", SCALARS, "--out", str(tmp_path)) == []


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestAllOrNoneWrites:
    """A command writes all of its files or none: a failed run leaves an earlier run's files as they were."""

    @pytest.fixture()
    def earlier(self, runner, tmp_path) -> Path:
        """An output directory holding an earlier run's report and summarize files.

        Each file's bytes are then marked, so a rerun that rewrites it shows.
        """
        out = tmp_path / "out"
        run(runner, "report", "--profiles", PROFILES, "--kind", "boxplot", "--kind", "ordered", "--svg",
            "--out", str(out))
        run(runner, "summarize", "--profiles", PROFILES, "--out", str(out))
        for path in out.iterdir():
            path.write_bytes(b"earlier run\n" + path.read_bytes())
        return out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--kind", "boxplot", "--kind", "scatter", "--x", "p_sjr", "--y", "nosuch"], "unknown variable 'nosuch'"),
            (["--kind", "boxplot", "--kind", "ordered", "--order-family", "XYZ", "--svg"], "unknown variable 'i_xyz'"),
        ],
        ids=["scatter-axis", "order-family"],
    )
    def test_later_report_error_writes_nothing(self, runner, earlier, args, message):
        before = snapshot(earlier)
        result = runner.invoke(main, ["report", "--profiles", PROFILES, "--out", str(earlier), *args])
        assert result.exit_code == EXIT_UNKNOWN_NAME, result.output
        assert f"Error: {message}" in result.output and "wrote" not in result.output
        assert snapshot(earlier) == before

    @staticmethod
    def fail_second_write(monkeypatch):
        """Make the second file io opens for writing run out of space halfway through."""
        real_open = open
        opened = []

        class FailingFile:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "w" in mode:
                opened.append(file)
            return FailingFile(f) if "w" in mode and len(opened) == 2 else f

        monkeypatch.setattr(pio, "open", failing_open, raising=False)

    @pytest.mark.parametrize(
        "args, second",
        [
            (["summarize"], "profiles.aggregate.csv"),
            (["report", "--kind", "boxplot", "--kind", "ordered", "--svg"], "profiles.boxplot.svg"),
        ],
        ids=["summarize", "report-svg"],
    )
    def test_failed_second_write_keeps_the_earlier_files(self, runner, earlier, monkeypatch, args, second):
        before = snapshot(earlier)
        self.fail_second_write(monkeypatch)
        result = runner.invoke(main, [*args, "--profiles", PROFILES, "--out", str(earlier)])
        assert result.exit_code == 2, result.output
        assert f"Error: cannot write {earlier / second}: No space left on device" in result.output
        assert "wrote" not in result.output and "Traceback" not in result.output
        assert snapshot(earlier) == before  # no new file, and no temporary one

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 5: a rename that fails partway keeps the renames"
                       " before it, so the earlier targets already hold the new run's files")
    def test_a_later_target_that_cannot_be_replaced_keeps_the_earlier_files(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "summarize", "--profiles", PROFILES, "--out", str(out), "--name", "t")
        (out / "t.deltas.csv").unlink()
        (out / "t.deltas.csv").mkdir()
        kept = ("t.groups.csv", "t.aggregate.csv")
        for name in kept:
            (out / name).write_bytes(b"earlier run\n")
        before = {name: ((out / name).read_bytes(), (out / name).stat().st_ino) for name in kept}
        result = runner.invoke(main, ["summarize", "--profiles", PROFILES, "--out", str(out), "--name", "t"])
        assert result.exit_code == 2, result.output
        assert f"Error: cannot write {out / 't.deltas.csv'}: Is a directory" in result.output
        assert {name: ((out / name).read_bytes(), (out / name).stat().st_ino) for name in kept} == before

    def test_single_group_warning_comes_before_its_one_write(self, runner, tmp_path):
        rows = [row for row in read_rows(Path(PROFILES)) if row["group"] == "Phy"]
        profiles = write_table(tmp_path / "phy.csv", rows)
        out = tmp_path / "out"
        result = run(runner, "summarize", "--profiles", profiles, "--out", str(out))
        assert result.stderr.splitlines() == [
            "warning: single group, skipping variance decomposition",
            f"wrote {out / 'phy.groups.csv'}",
        ]


class TestStatisticOverflow:
    """A summary statistic that overflows the float range exits 8, naming the variable and the group."""

    @staticmethod
    def profiles(tmp_path: Path, cells: tuple[str, str]) -> str:
        path = tmp_path / "big.csv"
        path.write_text(
            "author_id,group,papers,cites,h,p_sjr\n"
            f"a,G1,1,2,1,{cells[0]}\nb,G1,2,3,1,{cells[1]}\nc,G2,3,4,2,1\nd,G2,4,5,2,2\n",
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize(
        "cells, command, statistic",
        [
            (("1e200", "0"), "summarize", "describe"),  # the std squares a 5e199 deviation
            (("1e308", "1e308"), "summarize", "describe"),  # the sum
            (("1e308", "1e308"), "report", "boxplot"),  # the median of two values, inf before
        ],
        ids=["std", "sum", "median"],
    )
    def test_overflow_exits_8(self, runner, tmp_path, cells, command, statistic):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--profiles", self.profiles(tmp_path, cells), "--out", str(out)])
        assert result.exit_code == EXIT_COMPUTE, result.output
        assert f"Error: 'p_sjr' in group 'G1': {statistic} overflows the float range" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_pooled_overflow_names_the_variable(self, runner, tmp_path):
        # each group's statistics are finite; only the pooled sum overflows
        family = "p_sjr,i_sjr,r_sjr,pi_sjr,pr_sjr,ir_sjr,pi2r_sjr"
        path = tmp_path / "pooled.csv"
        path.write_text(
            f"author_id,group,papers,cites,h,{family}\na,G1,1,2,1,1e308{',1' * 6}\nb,G2,2,3,1,1e308{',1' * 6}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", str(path), "--out", str(out)])
        assert result.exit_code == EXIT_COMPUTE, result.output
        assert "Error: 'p_sjr': describe overflows the float range" in result.output
        assert not out.exists()

    def test_delta_overflow_exits_8(self, runner, tmp_path):
        # every statistic is finite; the pi delta of SJR against SNIP is 1e312 percent
        family = ",".join(f"{cell}_{fam}" for fam in ("sjr", "snip") for cell in ("p", "i", "r", "pi", "pr", "ir", "pi2r"))
        cells = "1,1,1,1e300,1,1,1,1,1,1,1e-10,1,1,1"
        path = tmp_path / "infdelta.csv"
        path.write_text(
            f"author_id,group,papers,cites,h,{family}\n"
            + "".join(f"{author},{group},1,1,1,{cells}\n" for author, group in zip("abcd", ("G1", "G1", "G2", "G2"))),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["summarize", "--profiles", str(path), "--out", str(out)])
        assert result.exit_code == EXIT_COMPUTE, result.output
        assert "Error: 'pi' delta of SJR against SNIP overflows the float range" in result.output
        assert not out.exists()
