import csv
import io
import json
import math
import random
from xml.etree import ElementTree

import pytest

from pirmetrics.io import IngestError, ScalarMetrics
from pirmetrics.model import SJR, SNIP, IndicatorProfile, YearWindow
from pirmetrics import report, stats
from pirmetrics.report import (
    FAMILY_FIELDS,
    NA,
    SCALAR_FIELDS,
    AuthorTableRow,
    DimensionCells,
    ReportError,
    aggregate_report,
    author_table,
    author_table_export,
    correlation_report,
    figure_data,
    fmt2,
    fmt3,
    group_summary,
    load_profiles,
    render_boxplot_svg,
    render_correlation_text,
    render_table,
    save_profiles,
)
from pirmetrics.stats import (
    CorrelationCell,
    DescriptiveSummary,
    GroupedSample,
    describe,
    variance_decomposition,
)

WIN = YearWindow(2009, 2013)

GROUPS_HEADER = ["group", "variable", "n", "median", "mean", "std", "min", "max", "range", "excluded"]
AGGREGATE_HEADER = [
    "variable", "n", "median", "mean", "std", "min", "max", "range",
    "within_ss", "between_ss", "total_ss", "pct_reduction",
]
DELTAS_HEADER = ["variable", "family_a", "family_b", "median_delta_pct", "mean_delta_pct"]
CORRELATIONS_HEADER = ["group", "row", "column", "r", "n", "significance", "mark", "note"]


def records(table) -> list[dict]:
    """A report table's rows as {column: cell} dicts."""
    header, data = table
    return [dict(zip(header, row)) for row in data]


def summary_cells(s: DescriptiveSummary) -> list:
    """The n..range cells a groups or aggregate row holds for a summary."""
    return [s.n, s.median, s.mean, s.sample_std, s.min, s.max, s.value_range]


def profile(author_id, family, p, i, r):
    from pirmetrics.model import derive_ratios

    pi, pr, ir, pi2r = derive_ratios(p, i, r)
    return IndicatorProfile(
        author_id=author_id,
        indicator=family,
        window=WIN,
        p=p,
        i=i,
        r=r,
        p_over_i=pi,
        p_over_r=pr,
        i_over_r=ir,
        pi_over_2r=pi2r,
    )


class TestAuthorTable:
    def test_single_author_single_family(self):
        rows = author_table(
            {"SJR": [profile("a", "SJR", 1.0, 2.0, 4.0)]},
            {"a": ScalarMetrics("a", 3, 5, 1)},
            groups={"a": "Phy"},
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.papers == 3 and row.cites == 5 and row.h == 1
        assert row.families["SJR"].pi == 0.5
        assert row.value("pi_sjr") == 0.5

    def test_missing_family_named(self):
        with pytest.raises(ReportError) as excinfo:
            author_table(
                {
                    "SJR": [profile("a", "SJR", 1, 1, 1)],
                    "SNIP": [],
                },
                {},
            )
        assert "a" in str(excinfo.value) and "SNIP" in str(excinfo.value)

    def test_fixture_row_91_is_bocci(self, fixture_rows):
        row = fixture_rows[90]
        assert row.author_id == "Bocci, A."
        assert row.group == "Phy"
        assert (row.papers, row.cites, row.h) == (412, 8780, 42)
        cells = row.families[SJR]
        assert (cells.p, cells.i, cells.r, cells.pi) == (2.817, 1.936, 2.727, 1.455)

    def test_fixture_order_is_presentation_order(self, fixture_rows):
        shuffled = list(reversed(fixture_rows))
        profiles = {
            family: [
                IndicatorProfile(row.author_id, family, WIN, c.p, c.i, c.r, c.pi, c.pr, c.ir, c.pi2r)
                for row in shuffled
                for c in [row.families[family]]
            ]
            for family in (SJR, SNIP)
        }
        scalars = {r.author_id: ScalarMetrics(r.author_id, r.papers, r.cites, r.h) for r in shuffled}
        groups = {r.author_id: r.group for r in shuffled}
        assert author_table(profiles, scalars, groups) == list(fixture_rows)

    def test_sort_keys(self):
        keys = {
            "d": ("Phy", 10, 100, 5),
            "c": ("Chem", 10, 100, 5),
            "f": ("Chem", None, None, None),
            "b": ("Chem", 10, 200, 5),
            "a": ("Chem", 20, 200, 5),
            "e": ("Chem", 10, 100, 9),
        }
        rows = author_table(
            {SJR: [profile(a, SJR, 1.0, 1.0, 1.0) for a in keys]},
            {a: ScalarMetrics(a, *counts) for a, (_, *counts) in keys.items() if counts[0] is not None},
            groups={a: group for a, (group, *_) in keys.items()},
        )
        # an author without scalar counters sorts last in its group
        assert [r.author_id for r in rows] == ["e", "a", "b", "c", "f", "d"]

    def test_ratio_cells_reproduce_dimension_quotients(self, fixture_rows):
        for row in fixture_rows:
            for cells in row.families.values():
                assert cells.pi == pytest.approx(cells.p / cells.i, abs=0.01)
                assert cells.pr == pytest.approx(cells.p / cells.r, abs=0.01)
                assert cells.ir == pytest.approx(cells.i / cells.r, abs=0.01)
                assert cells.pi2r == pytest.approx(
                    (cells.p + cells.i) / (2 * cells.r), abs=0.01
                )

    def test_unknown_variable_lists_available(self, fixture_rows):
        with pytest.raises(ReportError) as excinfo:
            fixture_rows[0].value("g_factor")
        message = str(excinfo.value)
        assert "g_factor" in message and "pi_sjr" in message

    def test_variables_for(self, fixture_rows):
        first = records(group_summary(fixture_rows))
        names = [r["variable"] for r in first if r["group"] == first[0]["group"]]
        assert names[:3] == ["papers", "cites", "h"]
        assert "p_sjr" in names and "pi2r_snip" in names
        assert len(names) == 17


class TestProfilesRoundTrip:
    @pytest.mark.parametrize(
        "second, missing, extra",
        [
            ({"author_id": "b", "group": "G", "p_sjr": 1, "i_sjr": 2, "p_snip": 2, "i_snip": 3},
             [], ["p_snip", "i_snip"]),
            ({"author_id": "b", "group": "G", "p_sjr": 1}, ["i_sjr"], []),
            ({"author_id": "b", "group": "G", "i_sjr": 2, "h": 1}, ["p_sjr"], ["h"]),
        ],
    )
    def test_json_rows_carry_the_first_rows_fields(self, second, missing, extra):
        first = {"author_id": "a", "group": "G", "p_sjr": 1, "i_sjr": 2}
        with pytest.raises(IngestError) as excinfo:
            load_profiles(io.StringIO(json.dumps([first, second])), "json")
        assert str(excinfo.value) == (
            f"profiles: row 2: fields differ from the first row's: missing {missing}, extra {extra}"
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([{"author_id": "a", "p_sjr": 1}], "profiles: row 1: missing fields ['group']"),
            # a required field's absence is named before the fields that differ from the first row's
            ([{"author_id": "a", "group": "G", "p_sjr": 1}, {"group": "G", "h": 1}],
             "profiles: row 2: missing fields ['author_id']"),
        ],
        ids=["first-row", "later-row"],
    )
    def test_json_rows_missing_a_required_field(self, rows, message):
        with pytest.raises(IngestError) as excinfo:
            load_profiles(io.StringIO(json.dumps(rows)), "json")
        assert str(excinfo.value) == message

    def test_json_fields_in_another_order_load(self):
        rows = [{"author_id": "a", "group": "G", "p_sjr": 1}, {"p_sjr": 2, "group": "G", "author_id": "b"}]
        loaded = load_profiles(io.StringIO(json.dumps(rows)), "json")
        assert [r.families[SJR].p for r in loaded] == [1, 2]

    def test_fixture_round_trip_is_identity(self, fixture_rows):
        buf = io.StringIO()
        save_profiles(fixture_rows, buf)
        again = load_profiles(io.StringIO(buf.getvalue()))
        assert again == list(fixture_rows)

    def test_round_trip_preserves_bytes(self, fixture_rows):
        buf1 = io.StringIO()
        save_profiles(fixture_rows, buf1)
        again = load_profiles(io.StringIO(buf1.getvalue()))
        buf2 = io.StringIO()
        save_profiles(again, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_undefined_cells_render_na(self):
        rows = [
            AuthorTableRow(
                "a",
                "Phy",
                None,
                None,
                None,
                {"SJR": DimensionCells(1.0, None, None, None, None, None, None)},
            )
        ]
        buf = io.StringIO()
        save_profiles(rows, buf)
        text = buf.getvalue()
        assert "NA" in text
        (record,) = list(csv.DictReader(io.StringIO(text)))
        assert record["papers"] == NA
        assert record["i_sjr"] == NA
        assert record["p_sjr"] == "1.000"
        again = load_profiles(io.StringIO(text))
        assert again == rows

    def test_json_is_numbers_and_null(self):
        rows = [
            AuthorTableRow(
                "a",
                "Phy",
                12,
                None,
                None,
                {"SJR": DimensionCells(1.6045, None, None, None, None, None, None)},
            )
        ]
        buf = io.StringIO()
        save_profiles(rows, buf, fmt="json")
        (record,) = json.loads(buf.getvalue())
        assert record["papers"] == 12
        assert record["cites"] is None
        assert record["p_sjr"] == 1.6045
        assert record["i_sjr"] is None
        assert load_profiles(io.StringIO(buf.getvalue()), fmt="json") == rows

    def test_canonical_families_recovered_from_header(self, fixture_rows):
        assert set(fixture_rows[0].families) == {SJR, SNIP}

    def test_other_family_suffix_kept_verbatim(self):
        text = "author_id,group,p_Foo,pi_Foo,i_bar\na,G,1,0.5,2\n"
        (row,) = load_profiles(io.StringIO(text))
        assert row.families == {
            "Foo": DimensionCells(1.0, None, None, 0.5, None, None, None),
            "bar": DimensionCells(None, 2.0, None, None, None, None, None),
        }
        assert (row.value("p_foo"), row.value("pi_foo"), row.value("i_bar")) == (1.0, 0.5, 2.0)

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("csv", "author_id,group,papers,cites,h,p_sjr,p_SJR\na,G,1,1,1,1,2\n",
             "profiles: line 1: columns 'p_sjr' and 'p_SJR' spell one family's suffix in two cases"),
            ("json", json.dumps([{"author_id": "a", "group": "G", "p_foo": 1, "i_bar": 2, "i_Foo": 3}]),
             "profiles: row 1: columns 'p_foo' and 'i_Foo' spell one family's suffix in two cases"),
        ],
        ids=["csv", "json"],
    )
    def test_family_suffix_in_two_cases_rejected(self, fmt, text, message):
        with pytest.raises(IngestError) as excinfo:
            load_profiles(io.StringIO(text), fmt)
        assert str(excinfo.value) == message

    def test_repeated_author_rejected_with_line(self):
        text = "author_id,group,p_sjr\na,G,1\nb,G,2\na,H,3\n"
        with pytest.raises(IngestError, match=r"^profiles: line 4: duplicate author 'a'$"):
            load_profiles(io.StringIO(text))

    def test_families_found_from_any_of_their_columns(self):
        text = "author_id,group,i_snip,pi2r_sjr,p_snip\na,G,2.5,0.75,1\n"
        (row,) = load_profiles(io.StringIO(text))
        assert list(row.families) == [SNIP, SJR]  # in first-seen order
        assert row.families == {
            SNIP: DimensionCells(1.0, 2.5, None, None, None, None, None),
            SJR: DimensionCells(None, None, None, None, None, None, 0.75),
        }


class TestGroupSummary:
    def test_one_block_per_group_sorted(self, fixture_rows):
        table = records(group_summary(fixture_rows, variables=["p_sjr"]))
        assert [r["group"] for r in table] == ["Chem", "Comp", "Med", "Phy"]
        assert all(r["variable"] == "p_sjr" and r["n"] == 30 for r in table)

    def test_published_chemistry_values(self, fixture_rows):
        chem = records(group_summary(fixture_rows, variables=["i_sjr"]))[0]
        assert chem["group"] == "Chem"
        assert chem["median"] == pytest.approx(1.733, abs=0.005)
        assert chem["mean"] == pytest.approx(1.856, abs=0.005)
        assert chem["min"] == pytest.approx(1.023, abs=0.005)
        assert chem["max"] == pytest.approx(4.230, abs=0.005)

    def test_published_computer_science_h(self, fixture_rows):
        comp = records(group_summary(fixture_rows, variables=["h"]))[1]
        assert comp["group"] == "Comp"
        assert comp["median"] == pytest.approx(4.0)
        assert comp["range"] == pytest.approx(8)

    def test_single_group_equals_pooled_describe(self):
        rows = [
            AuthorTableRow(f"a{k}", "Solo", k, k, k, {}) for k in range(1, 6)
        ]
        header, data = group_summary(rows, variables=["h"])
        assert header == GROUPS_HEADER
        assert data == [["Solo", "h", *summary_cells(describe([1, 2, 3, 4, 5])), 0]]

    def test_missing_group_rejected(self):
        rows = [AuthorTableRow("a", None, 1, 1, 1, {})]
        with pytest.raises(ReportError):
            group_summary(rows, variables=["h"])

    def test_exclusions_footnoted(self):
        rows = [
            AuthorTableRow(
                "a", "G", 1, 1, 1, {"SJR": DimensionCells(1.0, None, 1.0, None, 1.0, None, 0.5)}
            ),
            AuthorTableRow(
                "b", "G", 2, 2, 2, {"SJR": DimensionCells(2.0, 3.0, 1.0, 0.7, 2.0, 3.0, 2.5)}
            ),
        ]
        (row,) = records(group_summary(rows, variables=["i_sjr"]))
        assert row["n"] == 1
        assert row["excluded"] == 1


class TestAggregateReport:
    def test_fixture_pi_sjr_cells(self, fixture_rows):
        aggregate, _ = aggregate_report(fixture_rows, variables=["pi_sjr"])
        (pi_sjr,) = records(aggregate)
        assert pi_sjr["variable"] == "pi_sjr"
        assert pi_sjr["median"] == pytest.approx(1.065, abs=0.005)
        assert pi_sjr["mean"] == pytest.approx(1.093, abs=0.005)
        assert pi_sjr["within_ss"] == pytest.approx(9.972, abs=0.05)
        assert pi_sjr["between_ss"] == pytest.approx(2.358, abs=0.05)
        assert pi_sjr["pct_reduction"] == pytest.approx(0.763, abs=0.005)

    def test_fixture_r_sjr_reduction(self, fixture_rows):
        aggregate, _ = aggregate_report(fixture_rows, variables=["r_sjr"])
        assert records(aggregate)[0]["pct_reduction"] == pytest.approx(0.717, abs=0.005)

    def test_cross_family_deltas(self, fixture_rows):
        _, deltas = aggregate_report(fixture_rows, variables=["pi_sjr", "pi_snip"])
        delta = next(d for d in records(deltas) if d["variable"] == "pi")
        assert delta["family_a"] == SJR and delta["family_b"] == SNIP
        assert delta["median_delta_pct"] == pytest.approx(2.2, abs=0.2)
        assert delta["mean_delta_pct"] == pytest.approx(3.1, abs=0.2)

    def test_needs_two_groups(self):
        rows = [AuthorTableRow("a", "G", 1, 1, 1, {}), AuthorTableRow("b", "G", 2, 2, 2, {})]
        with pytest.raises(ReportError):
            aggregate_report(rows, variables=["h"])

    def test_pooled_sample_is_every_row_in_row_order(self):
        def row(author_id, group, p):
            return AuthorTableRow(author_id, group, 1, 1, 1, {SJR: DimensionCells(p, *[None] * 6)})

        rows = [row("a", "G1", 0.0), row("b", "G2", -0.0), row("c", "G1", 0.0), row("d", None, 5.0), row("e", "G2", 6.0)]
        (header, data), _ = aggregate_report(rows, variables=["p_sjr"])
        # the row without a group is pooled, but stays out of the decomposition
        deco = variance_decomposition(GroupedSample({"G1": [0.0, 0.0], "G2": [-0.0, 6.0]}))
        assert header == AGGREGATE_HEADER
        assert data == [[
            "p_sjr", *summary_cells(describe([0.0, -0.0, 0.0, 5.0, 6.0])),
            deco.within_ss, deco.between_ss, deco.total_ss, deco.pct_reduction,
        ]]
        # the median of the equal zeros is the one in the middle row, so its sign shows the order
        assert math.copysign(1.0, records((header, data))[0]["median"]) == 1.0


def correlation_cells(table) -> dict[tuple, dict]:
    """A correlations table's rows as {column: cell} dicts, keyed by (group, row, column)."""
    return {(rec["group"], rec["row"], rec["column"]): rec for rec in records(table)}


LEGEND = "^a significant at the 90% level; ^b 95%; ^c 99%\n"


class TestCorrelationReport:
    def test_published_pearson_cells(self, fixture_rows):
        cells = correlation_cells(correlation_report(fixture_rows, method="pearson"))
        assert cells["Phy", "papers", "cites"]["r"] == pytest.approx(0.99, abs=0.01)
        med = cells["Med", "h", "i_sjr"]
        assert med["r"] == pytest.approx(0.46, abs=0.02)
        assert med["significance"] in (90, 95, 99)

    def test_published_spearman_cells(self, fixture_rows):
        cells = correlation_cells(correlation_report(fixture_rows, method="spearman"))
        assert cells["Chem", "cites", "h"]["r"] == pytest.approx(0.96, abs=0.02)
        assert cells["Phy", "cites", "r_sjr"]["r"] == pytest.approx(0.62, abs=0.02)

    def test_two_author_group_flagged_not_fatal(self):
        rows = [
            AuthorTableRow("a", "G", 1, 2, 1, {}),
            AuthorTableRow("b", "G", 3, 5, 2, {}),
        ]
        assert correlation_report(rows, variables=["papers", "cites"]) == (
            CORRELATIONS_HEADER, [["G", "papers", "cites", None, 2, None, "", "only 2 usable pairs"]],
        )

    def test_text_rendering_carries_marks(self, fixture_rows):
        _, data = correlation_report(
            fixture_rows, method="pearson", variables=["papers", "cites", "h"]
        )
        text = render_correlation_text(data, "pearson")
        assert "^c" in text
        assert "significant at the 90% level" in text

    def test_text_of_an_all_na_group(self):
        rows = [AuthorTableRow("a", "G", 1, 2, 1, {}), AuthorTableRow("b", "G", 3, 5, 2, {})]
        _, data = correlation_report(rows, variables=["papers", "cites", "h"])
        assert render_correlation_text(data, "pearson") == (
            "G (pearson)\n"
            "            cites          h\n"
            "papers           NA         NA\n"
            "cites                       NA\n"
            "\n" + LEGEND
        )

    def test_text_of_two_variable_groups(self):
        cells = [
            ("A", 1, 2), ("A", 2, 5), ("A", 3, 7), ("A", 4, 9), ("A", 5, 12), ("B", 1, 9), ("B", 2, 3), ("B", 3, 4),
        ]
        rows = [AuthorTableRow(str(k), g, p, c, 1, {}) for k, (g, p, c) in enumerate(cells)]
        _, data = correlation_report(rows, method="spearman", variables=["papers", "cites"])
        assert render_correlation_text(data, "spearman") == (
            "A (spearman)\n"
            "            cites\n"
            "papers      1.00 ^c\n"
            "\n"
            "B (spearman)\n"
            "            cites\n"
            "papers        -0.50\n"
            "\n" + LEGEND
        )

    def test_export_rounds_to_two_decimals(self, fixture_rows):
        header, data = correlation_report(fixture_rows, method="pearson")
        from pirmetrics.report import CORRELATION_FORMATTERS

        text = render_table(header, data, "csv", formatters=CORRELATION_FORMATTERS)
        first_line = text.splitlines()[1]
        r_field = first_line.split(",")[3]
        assert len(r_field.split(".")[-1]) == 2


class TestFigureData:
    def test_boxplot_rows_per_group_and_variable(self, fixture_rows):
        header, data = figure_data(fixture_rows, "boxplot", variables=["pi_sjr", "pi_snip"])
        assert header[:2] == ["group", "variable"]
        assert len(data) == 8  # 4 groups x 2 variables

    def test_boxplot_published_whiskers(self, fixture_rows):
        header, data = figure_data(fixture_rows, "boxplot", variables=["pi_sjr"])
        phy = next(r for r in data if r[0] == "Phy")
        q2, wlo, whi = phy[3], phy[5], phy[6]
        assert q2 == pytest.approx(1.365, abs=0.005)
        assert wlo == pytest.approx(0.684, abs=0.005)
        assert whi == pytest.approx(1.722, abs=0.005)

    def test_scatter_cardinality(self, fixture_rows):
        header, data = figure_data(fixture_rows, "scatter", x="p_sjr", y="i_sjr")
        assert header == ["author_id", "group", "p_sjr", "i_sjr"]
        assert len(data) == 120
        assert len({r[1] for r in data}) == 4

    def test_ordered_dimensions_sorted_by_impact(self, fixture_rows):
        header, data = figure_data(fixture_rows, "ordered_dimensions", order_family=SJR)
        impact_column = [r[3] for r in data]
        assert impact_column == sorted(impact_column, reverse=True)
        assert impact_column[0] == max(row.value("i_sjr") for row in fixture_rows)

    def test_row_without_the_first_rows_family_matches_its_own_by_suffix(self):
        rows = [
            AuthorTableRow("a", "G", 1, 1, 1, {SJR: DimensionCells(1.0, *[None] * 6)}),
            AuthorTableRow("b", "G", 2, 2, 2, {"Sjr": DimensionCells(2.0, *[None] * 6)}),
        ]
        assert figure_data(rows, "scatter", x="p_sjr", y="h")[1] == [["a", "G", 1.0, 1.0], ["b", "G", 2.0, 2.0]]
        assert [row.value("p_sjr") for row in rows] == [1.0, 2.0]

    def test_unknown_kind(self, fixture_rows):
        with pytest.raises(ReportError):
            figure_data(fixture_rows, "violin")

    def test_scatter_needs_x_and_y(self, fixture_rows):
        with pytest.raises(ReportError):
            figure_data(fixture_rows, "scatter", x="p_sjr")

    def test_scatter_needs_two_different_variables(self, fixture_rows):
        # one name twice would make a header the loaders refuse, and one key of a json object
        with pytest.raises(ReportError, match="scatter needs x and y variable names that differ"):
            figure_data(fixture_rows, "scatter", x="p_sjr", y="p_sjr")


class TestRendering:
    def test_fmt3_half_to_even_and_na(self):
        assert fmt3(None) == NA
        assert fmt3(2.8165) in ("2.816", "2.817")  # half-to-even at the wire
        assert fmt3(1.0) == "1.000"
        assert fmt2(0.825) in ("0.82", "0.83")
        assert fmt2(None) == NA

    def test_render_parse_stability(self, fixture_rows):
        header, data = author_table_export(fixture_rows)
        text = render_table(header, data, "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        for record, row in zip(parsed, fixture_rows):
            for family, cells in row.families.items():
                for field in ("p", "i", "r"):
                    shown = record[f"{field}_{family.lower()}"]
                    assert abs(float(shown) - getattr(cells, field)) <= 0.0005 + 1e-12

    def test_byte_identical_renderings(self, fixture_rows):
        header, data = group_summary(fixture_rows, variables=["p_sjr", "pi_snip"])
        assert render_table(header, data, "csv") == render_table(header, data, "csv")
        assert render_table(header, data, "json") == render_table(header, data, "json")

    def test_text_table_aligned(self, fixture_rows):
        header, data = group_summary(fixture_rows, variables=["p_sjr"])
        text = render_table(header, data, "text")
        lines = text.splitlines()
        assert lines[0].startswith("group")
        assert set(lines[1]) <= {"-", " "}

    def test_aggregate_export_columns(self, fixture_rows):
        (header, data), deltas = aggregate_report(fixture_rows, variables=["pi_sjr"])
        assert "within_ss" in header and "pct_reduction" in header
        assert len(data) == 1
        assert deltas == (DELTAS_HEADER, [])  # single variable, no cross-family pair

    def test_svg_boxplot_minimal(self, fixture_rows):
        header, data = figure_data(fixture_rows, "boxplot", variables=["pi_sjr"])
        svg = render_boxplot_svg(data)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == len(data)
        assert svg.strip().endswith("</svg>")

    def test_svg_labels_escaped_and_parse(self):
        rows = [
            AuthorTableRow(f"a{i}", group, i, i, 0, {SJR: DimensionCells(1.0 + i, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)})
            for group in ("R&D <lab>", 'Q"A') for i in range(1, 4)
        ]
        header, data = figure_data(rows, "boxplot", variables=["p_sjr"])
        root = ElementTree.fromstring(render_boxplot_svg(data))
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels == ['Q"A p_sjr', "R&D <lab> p_sjr"]

    def test_svg_label_escape_matches_saxutils(self):
        from xml.sax.saxutils import escape

        chars = [*"\t\n\r", *map(chr, range(0x20, 0x3000))]  # no surrogate lies in this range
        assert [c for c in chars if c.translate(report._SVG_TEXT) != escape(c)] == []

    def test_svg_label_with_xml_invalid_characters_parses(self):
        invalid = [*(chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"), "\ufffe", "\uffff"]
        group = "G" + "".join(map(chr, range(0x20))) + "\ufffe\uffffH"
        root = ElementTree.fromstring(render_boxplot_svg([[group, "p_sjr", 1.0, 2.0, 3.0, 0.0, 4.0]]))
        (label,) = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        shown = "".join("\ufffd" if c in invalid else c for c in group).replace("\r", "\n")  # XML reads CR as LF
        assert label == f"{shown} p_sjr"
        assert label.count("\ufffd") == len(invalid) == 31


# ---------------------------------------------------------------------------
# parity with a reference built cell by cell from AuthorTableRow.value


def _finite(v) -> bool:
    return v is not None and math.isfinite(v)


def _parity_rows(seed: int) -> list[AuthorTableRow]:
    """Rows with NA, inf and signed-zero cells, and rows whose families vary.

    Some rows carry their families in another order, and some carry the
    SJR cells under the key "sjr", which the first row lacks, so only the
    name lookup of AuthorTableRow.value finds them.
    """
    rng = random.Random(seed)
    special = (None, math.inf, -math.inf, 0.0, -0.0)

    def cell():
        return rng.choice(special) if rng.random() < 0.25 else round(rng.uniform(0.1, 3.0), 2)

    def counter():
        return None if rng.random() < 0.1 else rng.randint(0, 40)

    rows = []
    for k in range(40):
        families = {family: DimensionCells(*[cell() for _ in FAMILY_FIELDS]) for family in (SJR, SNIP)}
        if k % 7 == 3:
            families = {SNIP: families[SNIP], SJR: families[SJR]}
        elif k % 11 == 5:
            families = {"sjr": families[SJR], SNIP: families[SNIP]}
        rows.append(AuthorTableRow(f"a{k:02d}", f"G{rng.randint(0, 2)}", counter(), counter(), counter(), families))
    return rows


PARITY_VARIABLES = [*SCALAR_FIELDS, *(f"{f}_{s}" for s in ("sjr", "snip") for f in FAMILY_FIELDS)]


def _defined(rows, variable) -> list[float]:
    return [v for row in rows if _finite(v := row.value(variable))]


def _reference_describe(values) -> DescriptiveSummary:
    lo, hi = min(values), max(values)
    return DescriptiveSummary(
        len(values), stats._median(sorted(values)), stats._mean(values), stats._sample_std(values), lo, hi, hi - lo
    )


def _same(a, b):
    # repr tells 0.0 from -0.0, which == does not
    assert a == b
    assert repr(a) == repr(b)


@pytest.mark.parametrize("seed", range(4))
class TestColumnParity:
    def test_group_summary(self, seed):
        rows = _parity_rows(seed)
        expected = []
        for group in sorted({row.group for row in rows}):
            members = [row for row in rows if row.group == group]
            for v in PARITY_VARIABLES:
                values = _defined(members, v)
                expected.append([group, v, *summary_cells(_reference_describe(values)), len(members) - len(values)])
        _same(group_summary(rows), (GROUPS_HEADER, expected))

    def test_aggregate_report(self, seed):
        rows = [row._replace(group=None) if k % 9 == 4 else row for k, row in enumerate(_parity_rows(seed))]
        pooled = {v: _reference_describe(_defined(rows, v)) for v in PARITY_VARIABLES}
        aggregate = []
        for v in PARITY_VARIABLES:
            grouped = [
                values
                for group in sorted({row.group for row in rows if row.group is not None})
                if (values := _defined([row for row in rows if row.group == group], v))
            ]
            terms = [None] * 4
            if len(grouped) >= 2:
                everyone = [x for values in grouped for x in values]
                grand = stats._mean(everyone)
                means = [(values, stats._mean(values)) for values in grouped]
                within = math.fsum(math.fsum((x - m) ** 2 for x in values) for values, m in means)
                between = math.fsum(len(values) * (m - grand) ** 2 for values, m in means)
                total = math.fsum((x - grand) ** 2 for x in everyone)
                terms = [within, between, total, 1.0 - between / within if within > 0 else None]
            aggregate.append([v, *summary_cells(pooled[v]), *terms])
        deltas = []
        for ratio in ("pi", "pr", "ir", "pi2r"):
            a, b = pooled[f"{ratio}_sjr"], pooled[f"{ratio}_snip"]
            if b.median != 0 and b.mean != 0:
                deltas.append(
                    [ratio, SJR, SNIP, 100.0 * ((a.median - b.median) / b.median), 100.0 * ((a.mean - b.mean) / b.mean)]
                )
        _same(aggregate_report(rows), ((AGGREGATE_HEADER, aggregate), (DELTAS_HEADER, deltas)))

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_correlation_report(self, seed, method):
        rows = _parity_rows(seed)
        correlate = {"pearson": stats.pearson, "spearman": stats.spearman}[method]
        expected = []
        for group in sorted({row.group for row in rows}):
            members = [row for row in rows if row.group == group]
            columns = [[row.value(v) for row in members] for v in PARITY_VARIABLES]
            for a, xs in enumerate(columns):
                for b in range(a + 1, len(columns)):
                    pairs = [(x, y) for x, y in zip(xs, columns[b]) if _finite(x) and _finite(y)]
                    if len(pairs) < 3:
                        cell = CorrelationCell(r=None, n=len(pairs), note=f"only {len(pairs)} usable pairs")
                    else:
                        cell = correlate([x for x, _ in pairs], [y for _, y in pairs])
                    mark = {90: "a", 95: "b", 99: "c"}.get(cell.significance, "")
                    expected.append([
                        group, PARITY_VARIABLES[a], PARITY_VARIABLES[b],
                        cell.r, cell.n, cell.significance, mark, cell.note or "",
                    ])
        _same(correlation_report(rows, method=method, variables=PARITY_VARIABLES), (CORRELATIONS_HEADER, expected))

    def test_figure_data(self, seed):
        rows = _parity_rows(seed)
        boxes = []
        for group in sorted({row.group or "" for row in rows}):
            for v in PARITY_VARIABLES:
                values = _defined([row for row in rows if (row.group or "") == group], v)
                if values:
                    boxes.append([
                        group, v, stats._quantile(sorted(values), 0.25), stats._median(sorted(values)),
                        stats._quantile(sorted(values), 0.75), min(values), max(values),
                    ])
        _same(figure_data(rows, "boxplot")[1], boxes)
        scatter = [[row.author_id, row.group or "", row.value("p_sjr"), row.value("pi_snip")] for row in rows]
        _same(figure_data(rows, "scatter", x="p_sjr", y="pi_snip")[1], scatter)
        for family in (None, SNIP):
            suffix = (family or SJR).lower()
            defined = [row for row in rows if row.value(f"i_{suffix}") is not None]
            defined.sort(key=lambda row: (-row.value(f"i_{suffix}"), row.author_id))
            ordered = [
                [row.author_id, row.group or "", *(row.value(f"{f}_{suffix}") for f in ("p", "i", "r"))]
                for row in defined
            ]
            _same(figure_data(rows, "ordered_dimensions", order_family=family)[1], ordered)

    def test_row_without_the_family_fails_as_value_does(self, seed):
        rows = _parity_rows(seed)
        bare = AuthorTableRow("zz", "G1", 1, 1, 1, {SNIP: rows[0].families[SNIP]})
        rows.append(bare)
        for build, variable in (
            (lambda: group_summary(rows), "p_sjr"),
            (lambda: aggregate_report(rows), "p_sjr"),
            (lambda: correlation_report(rows, variables=PARITY_VARIABLES), "p_sjr"),
            (lambda: figure_data(rows, "boxplot"), "p_sjr"),
            (lambda: figure_data(rows, "scatter", x="p_sjr", y="h"), "p_sjr"),
            (lambda: figure_data(rows, "ordered_dimensions"), "i_sjr"),
        ):
            with pytest.raises(ReportError) as lookup:
                bare.value(variable)
            with pytest.raises(ReportError) as raised:
                build()
            assert str(raised.value) == str(lookup.value)


# ---------------------------------------------------------------------------
# the result types: immutable values whose fields are their table columns

def _cells():
    return DimensionCells(1.0, 2.0, 0.5, 0.5, 2.0, 4.0, 0.75)


# (build, a field of it): build makes a new, equal value on each call
RESULT_TYPES = [
    pytest.param(lambda: describe([1.0, 2.0, 5.0]), "median", id="DescriptiveSummary"),
    pytest.param(lambda: stats.boxplot([1.0, 2.0, 5.0]), "q2", id="BoxplotSummary"),
    pytest.param(
        lambda: variance_decomposition(GroupedSample({"a": [1.0, 2.0], "b": [4.0, 6.0]})), "within_ss",
        id="VarianceDecomposition",
    ),
    pytest.param(lambda: CorrelationCell(r=0.5, n=12, significance=90), "r", id="CorrelationCell"),
    pytest.param(_cells, "pi", id="DimensionCells"),
    pytest.param(lambda: AuthorTableRow("a1", "G", 3, 9, 2, {SJR: _cells()}), "group", id="AuthorTableRow"),
]


class TestResultTypes:
    @pytest.mark.parametrize("build, field", RESULT_TYPES)
    def test_fields_cannot_be_assigned(self, build, field):
        value = build()
        with pytest.raises(AttributeError):
            setattr(value, field, None)

    @pytest.mark.parametrize("build, field", RESULT_TYPES)
    def test_equal_fields_make_equal_values(self, build, field):
        a, b = build(), build()
        assert a is not b
        assert a == b and repr(a) == repr(b)
        assert a == tuple(a)  # as model.Event does, a value equals the plain tuple of its fields

    def test_stats_results_unpack_in_column_order(self):
        # every field of these samples differs from the others, so a swap shows
        n, median, mean, std, lo, hi, span = describe([1.0, 2.0, 5.0])
        assert (n, median, mean, lo, hi, span) == (3, 2.0, 8.0 / 3.0, 1.0, 5.0, 4.0)
        assert std == stats._sample_std([1.0, 2.0, 5.0])
        assert list(stats.boxplot([1.0, 2.0, 5.0])) == [1.5, 2.0, 3.5, 1.0, 5.0]
        within, between, total, pct = variance_decomposition(GroupedSample({"a": [1.0, 2.0], "b": [4.0, 6.0]}))
        assert (within, between, total) == (2.5, 12.25, 14.75)
        assert pct == 1.0 - 12.25 / 2.5
