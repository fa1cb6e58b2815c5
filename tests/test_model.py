import pytest
from hypothesis import given
from hypothesis import strategies as st

from pirmetrics.model import (
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    ImpactTable,
    ModelError,
    YearWindow,
    derive_ratios,
)


class TestYearWindow:
    def test_contains_membership(self):
        window = YearWindow(2009, 2013)
        assert 2009 in window
        assert 2013 in window
        assert 2014 not in window
        assert 2008 not in window
        assert 2011 in window

    def test_degenerate_single_year(self):
        assert 2009 in YearWindow(2009, 2009)

    def test_inverted_window_rejected(self):
        with pytest.raises(ModelError):
            YearWindow(2013, 2009)

    def test_parse(self):
        assert YearWindow.parse("2009:2013") == YearWindow(2009, 2013)
        assert YearWindow.parse("2009-2013") == YearWindow(2009, 2013)
        with pytest.raises(ModelError):
            YearWindow.parse("nineteen:ninety")


class TestEvent:
    def test_count_must_be_positive(self):
        with pytest.raises(ModelError):
            Event(EventKind.PUBLICATION, "J1", 2010, 0)
        with pytest.raises(ModelError):
            Event(EventKind.PUBLICATION, "J1", 2010, -3)

    def test_journal_must_be_nonempty(self):
        with pytest.raises(ModelError):
            Event(EventKind.CITATION, "", 2010, 1)

    def test_kind_parse_case_insensitive(self):
        assert EventKind.parse("Publication") is EventKind.PUBLICATION
        assert EventKind.parse("CITATION") is EventKind.CITATION
        with pytest.raises(ModelError):
            EventKind.parse("retraction")


class TestAuthorCorpus:
    def test_merged_counts_sums_duplicates(self):
        corpus = AuthorCorpus(
            "a",
            (
                Event(EventKind.PUBLICATION, "J1", 2010, 2),
                Event(EventKind.PUBLICATION, "J1", 2010, 3),
                Event(EventKind.CITATION, "J1", 2010, 7),
            ),
        )
        assert corpus.merged_counts(EventKind.PUBLICATION) == {("J1", 2010): 5}
        assert corpus.merged_counts(EventKind.CITATION) == {("J1", 2010): 7}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["J1", "J2", "J3"]),
                st.integers(2009, 2013),
                st.integers(1, 9),
            ),
            max_size=20,
        ),
        st.randoms(),
    )
    def test_aggregation_order_independent(self, raw, rng):
        events = [Event(EventKind.REFERENCE, j, y, c) for j, y, c in raw]
        shuffled = list(events)
        rng.shuffle(shuffled)
        a = AuthorCorpus("x", tuple(events))
        b = AuthorCorpus("x", tuple(shuffled))
        assert a.merged_counts(EventKind.REFERENCE) == b.merged_counts(EventKind.REFERENCE)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(EventKind)),
                st.sampled_from(["J1", "J2", "J3"]),
                st.integers(2005, 2015),
                st.integers(1, 9),
            ),
            max_size=40,
        ),
        st.randoms(),
    )
    def test_merged_counts_equal_summed_rows(self, rows, rng):
        rng.shuffle(rows)
        corpus = AuthorCorpus("x", tuple(Event(*row) for row in rows))
        assert list(corpus.merged) == list(EventKind)
        for kind in EventKind:
            want: dict[tuple[str, int], int] = {}
            for row_kind, journal, year, count in rows:
                if row_kind is kind:
                    want[journal, year] = want.get((journal, year), 0) + count
            assert corpus.merged_counts(kind) == want

    def test_empty_author_id_rejected(self):
        with pytest.raises(ModelError):
            AuthorCorpus("", ())


class TestImpactTable:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ModelError):
            ImpactTable([("J1", 2010, "SJR", 1.0), ("J1", 2010, "SJR", 2.0)])

    def test_negative_value_rejected(self):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ModelError):
                ImpactTable([("J1", 2010, "SJR", value)])

    def test_lookup(self):
        table = ImpactTable([("J1", 2010, "SJR", 1.5), ("J1", 2010, "SNIP", 0.9)])
        assert table.get("J1", 2010, "SJR") == 1.5
        assert table.get("J1", 2010, "SNIP") == 0.9
        assert table.get("J1", 2011, "SJR") is None
        assert table.indicators() == {"SJR", "SNIP"}

    def test_scaled(self):
        table = ImpactTable([("J1", 2010, "SJR", 1.5)])
        assert table.scaled(2.0).get("J1", 2010, "SJR") == 3.0
        with pytest.raises(ModelError):
            table.scaled(0.0)


class TestCoverageDiagnostics:
    def test_counts_must_reconcile(self):
        CoverageDiagnostics(5, 3, 2)
        with pytest.raises(ModelError):
            CoverageDiagnostics(5, 3, 3)


class TestDeriveRatios:
    def test_defined_everywhere(self):
        pi, pr, ir, pi2r = derive_ratios(1.0, 2.0, 4.0)
        assert pi == 0.5
        assert pr == 0.25
        assert ir == 0.5
        assert pi2r == 0.375

    def test_zero_denominators_undefined(self):
        pi, pr, ir, pi2r = derive_ratios(1.0, 0.0, 0.0)
        assert pi is None and pr is None and ir is None and pi2r is None

    def test_undefined_numerator_propagates(self):
        pi, pr, ir, pi2r = derive_ratios(None, 2.0, 4.0)
        assert pi is None and pr is None
        assert ir == 0.5
        assert pi2r is None

    @given(
        st.floats(0.001, 100.0),
        st.floats(0.001, 100.0),
        st.floats(0.001, 100.0),
    )
    def test_ratios_pure_function_of_dimensions(self, p, i, r):
        first = derive_ratios(p, i, r)
        second = derive_ratios(p, i, r)
        assert first == second  # bit-for-bit
        assert first[0] == p / i
        assert first[3] == (p + i) / (2.0 * r)
