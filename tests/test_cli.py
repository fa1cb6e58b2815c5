import csv
import gc
import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from pirmetrics import cli
from pirmetrics import report as rpt
from pirmetrics.cli import (
    EXIT_COMPUTE,
    EXIT_FEW_GROUPS,
    EXIT_INPUT,
    EXIT_MISSING_IMPACT,
    EXIT_NO_AUTHORS,
    EXIT_UNKNOWN_NAME,
    main,
)
from pirmetrics.data import fixture_path
from pirmetrics.engine import BatchError, EngineError, MissingImpactError
from pirmetrics.io import IngestError
from pirmetrics.report import GroupError, ReportError


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
        assert sorted(p.name for p in out.iterdir()) == []


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


class TestUnreadableInputs:
    """An input that is a directory, a missing path, or a csv that is not UTF-8, exits 3 with no traceback."""

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
