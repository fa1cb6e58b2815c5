import csv
import io
import json
import math
from xml.etree import ElementTree

import pytest

from pirmetrics.io import IngestError, ScalarMetrics
from pirmetrics.model import SJR, SNIP, IndicatorProfile, YearWindow
from pirmetrics.report import (
    NA,
    AuthorTableRow,
    DimensionCells,
    ReportError,
    aggregate_export,
    aggregate_report,
    author_table,
    author_table_export,
    correlation_export,
    correlation_report,
    deltas_export,
    figure_data,
    fmt2,
    fmt3,
    group_summary,
    group_summary_export,
    load_profiles,
    render_boxplot_svg,
    render_correlation_text,
    render_table,
    save_profiles,
)
from pirmetrics.stats import GroupedSample, describe, variance_decomposition

WIN = YearWindow(2009, 2013)


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
        names = list(group_summary(fixture_rows)[0].summaries)
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


class TestGroupSummary:
    def test_one_block_per_group_sorted(self, fixture_rows):
        blocks = group_summary(fixture_rows, variables=["p_sjr"])
        assert [b.group for b in blocks] == ["Chem", "Comp", "Med", "Phy"]
        assert all(b.summaries["p_sjr"].n == 30 for b in blocks)

    def test_published_chemistry_values(self, fixture_rows):
        blocks = group_summary(fixture_rows, variables=["i_sjr"])
        chem = blocks[0].summaries["i_sjr"]
        assert chem.median == pytest.approx(1.733, abs=0.005)
        assert chem.mean == pytest.approx(1.856, abs=0.005)
        assert chem.min == pytest.approx(1.023, abs=0.005)
        assert chem.max == pytest.approx(4.230, abs=0.005)

    def test_published_computer_science_h(self, fixture_rows):
        blocks = group_summary(fixture_rows, variables=["h"])
        comp = blocks[1].summaries["h"]
        assert comp.median == pytest.approx(4.0)
        assert comp.value_range == pytest.approx(8)

    def test_single_group_equals_pooled_describe(self):
        rows = [
            AuthorTableRow(f"a{k}", "Solo", k, k, k, {}) for k in range(1, 6)
        ]
        blocks = group_summary(rows, variables=["h"])
        assert len(blocks) == 1
        from pirmetrics.stats import describe

        assert blocks[0].summaries["h"] == describe([1, 2, 3, 4, 5])

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
        blocks = group_summary(rows, variables=["i_sjr"])
        assert blocks[0].summaries["i_sjr"].n == 1
        assert blocks[0].excluded["i_sjr"] == 1


class TestAggregateReport:
    def test_fixture_pi_sjr_cells(self, fixture_rows):
        report = aggregate_report(fixture_rows, variables=["pi_sjr"])
        pooled = report.pooled["pi_sjr"]
        deco = report.decompositions["pi_sjr"]
        assert pooled.median == pytest.approx(1.065, abs=0.005)
        assert pooled.mean == pytest.approx(1.093, abs=0.005)
        assert deco.within_ss == pytest.approx(9.972, abs=0.05)
        assert deco.between_ss == pytest.approx(2.358, abs=0.05)
        assert deco.pct_reduction == pytest.approx(0.763, abs=0.005)

    def test_fixture_r_sjr_reduction(self, fixture_rows):
        report = aggregate_report(fixture_rows, variables=["r_sjr"])
        assert report.decompositions["r_sjr"].pct_reduction == pytest.approx(0.717, abs=0.005)

    def test_cross_family_deltas(self, fixture_rows):
        report = aggregate_report(fixture_rows, variables=["pi_sjr", "pi_snip"])
        delta = next(d for d in report.deltas if d.variable == "pi")
        assert delta.family_a == SJR and delta.family_b == SNIP
        assert 100 * delta.median_delta == pytest.approx(2.2, abs=0.2)
        assert 100 * delta.mean_delta == pytest.approx(3.1, abs=0.2)

    def test_needs_two_groups(self):
        rows = [AuthorTableRow("a", "G", 1, 1, 1, {}), AuthorTableRow("b", "G", 2, 2, 2, {})]
        with pytest.raises(ReportError):
            aggregate_report(rows, variables=["h"])

    def test_pooled_sample_is_every_row_in_row_order(self):
        def row(author_id, group, p):
            return AuthorTableRow(author_id, group, 1, 1, 1, {SJR: DimensionCells(p, *[None] * 6)})

        rows = [row("a", "G1", 0.0), row("b", "G2", -0.0), row("c", "G1", 0.0), row("d", None, 5.0), row("e", "G2", 6.0)]
        report = aggregate_report(rows, variables=["p_sjr"])
        # the row without a group is pooled, but stays out of the decomposition
        assert report.pooled["p_sjr"] == describe([0.0, -0.0, 0.0, 5.0, 6.0])
        assert report.decompositions["p_sjr"] == variance_decomposition(
            GroupedSample({"G1": [0.0, 0.0], "G2": [-0.0, 6.0]})
        )
        # the median of the equal zeros is the one in the middle row, so its sign shows the order
        assert math.copysign(1.0, report.pooled["p_sjr"].median) == 1.0


class TestCorrelationReport:
    def test_published_pearson_cells(self, fixture_rows):
        matrices = correlation_report(fixture_rows, method="pearson")
        by_group = {m.group: m for m in matrices}
        assert by_group["Phy"].cell("papers", "cites").r == pytest.approx(0.99, abs=0.01)
        med = by_group["Med"].cell("h", "i_sjr")
        assert med.r == pytest.approx(0.46, abs=0.02)
        assert med.significance in (90, 95, 99)

    def test_published_spearman_cells(self, fixture_rows):
        matrices = correlation_report(fixture_rows, method="spearman")
        by_group = {m.group: m for m in matrices}
        assert by_group["Chem"].cell("cites", "h").r == pytest.approx(0.96, abs=0.02)
        assert by_group["Phy"].cell("cites", "r_sjr").r == pytest.approx(0.62, abs=0.02)

    def test_two_author_group_flagged_not_fatal(self):
        rows = [
            AuthorTableRow("a", "G", 1, 2, 1, {}),
            AuthorTableRow("b", "G", 3, 5, 2, {}),
        ]
        matrices = correlation_report(rows, variables=["papers", "cites"])
        cell = matrices[0].cell("papers", "cites")
        assert cell.r is None
        assert "2 usable pairs" in cell.note

    def test_text_rendering_carries_marks(self, fixture_rows):
        matrices = correlation_report(
            fixture_rows, method="pearson", variables=["papers", "cites", "h"]
        )
        text = render_correlation_text(matrices)
        assert "^c" in text
        assert "significant at the 90% level" in text

    def test_export_rounds_to_two_decimals(self, fixture_rows):
        matrices = correlation_report(fixture_rows, method="pearson")
        header, data = correlation_export(matrices)
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

    def test_unknown_kind(self, fixture_rows):
        with pytest.raises(ReportError):
            figure_data(fixture_rows, "violin")

    def test_scatter_needs_x_and_y(self, fixture_rows):
        with pytest.raises(ReportError):
            figure_data(fixture_rows, "scatter", x="p_sjr")


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
        blocks = group_summary(fixture_rows, variables=["p_sjr", "pi_snip"])
        header, data = group_summary_export(blocks)
        assert render_table(header, data, "csv") == render_table(header, data, "csv")
        assert render_table(header, data, "json") == render_table(header, data, "json")

    def test_text_table_aligned(self, fixture_rows):
        blocks = group_summary(fixture_rows, variables=["p_sjr"])
        header, data = group_summary_export(blocks)
        text = render_table(header, data, "text")
        lines = text.splitlines()
        assert lines[0].startswith("group")
        assert set(lines[1]) <= {"-", " "}

    def test_aggregate_export_columns(self, fixture_rows):
        report = aggregate_report(fixture_rows, variables=["pi_sjr"])
        header, data = aggregate_export(report)
        assert "within_ss" in header and "pct_reduction" in header
        assert len(data) == 1
        header, data = deltas_export(report)
        assert data == []  # single variable, no cross-family pair

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
