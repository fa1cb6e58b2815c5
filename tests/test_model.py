import copy
import inspect
import pickle
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pirmetrics import model
from pirmetrics.engine import EngineError, MissingValuePolicy
from pirmetrics.io import IngestError, ScalarMetrics
from pirmetrics.model import (
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    ImpactTable,
    IndicatorProfile,
    ModelError,
    YearWindow,
    derive_ratios,
)


class TestYearWindow:
    def test_degenerate_single_year(self):
        window = YearWindow(2009, 2009)
        assert (window.start_year, window.end_year) == (2009, 2009)

    def test_inverted_window_rejected(self):
        with pytest.raises(ModelError):
            YearWindow(2013, 2009)

    def test_parse(self):
        assert YearWindow.parse("2009:2013") == YearWindow(2009, 2013)
        for text in ("nineteen:ninety", "2009-2013", "2009:2011:2013", "2_009:2013", "2009:\uff12\uff10\uff11\uff13"):
            with pytest.raises(ModelError, match="cannot parse year window"):
                YearWindow.parse(text)


class TestEvent:
    def test_count_must_be_positive(self):
        with pytest.raises(ModelError):
            Event(EventKind.PUBLICATION, "J1", 2010, 0)
        with pytest.raises(ModelError):
            Event(EventKind.PUBLICATION, "J1", 2010, -3)

    def test_journal_must_be_nonempty(self):
        with pytest.raises(ModelError):
            Event(EventKind.CITATION, "", 2010, 1)

    @pytest.mark.parametrize("count", [1, 7, 2**53])
    def test_of_checked_is_the_event_built_through_the_class(self, count):
        checked = Event._of_checked((EventKind.REFERENCE, "J1", 2010, count))
        built = Event(EventKind.REFERENCE, "J1", 2010, count)
        assert type(checked) is Event and checked == built and hash(checked) == hash(built)
        assert pickle.loads(pickle.dumps(checked)) == built

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

    @pytest.mark.parametrize(
        "entry, message",
        [
            (("", 2010, "SJR", 1.0), "journal id must be non-empty"),
            (("J1", 2010, "", 1.0), "indicator name must be non-empty"),
        ],
    )
    def test_empty_journal_or_indicator_rejected(self, entry, message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            ImpactTable([entry])

    def test_repr_counts_entries(self):
        assert repr(ImpactTable([("J1", 2010, "SJR", 1.5), ("J1", 2010, "SNIP", 0.9)])) == "ImpactTable(2 entries)"
        assert repr(ImpactTable([])) == "ImpactTable(0 entries)"

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


WINDOW = YearWindow(2009, 2013)
EVENT = Event(EventKind.PUBLICATION, "J1", 2010, 2)
COVERAGE = {EventKind.CITATION: CoverageDiagnostics(3, 2, 1)}


def profile(p=1.0, coverage=COVERAGE):
    return IndicatorProfile("a", "SJR", WINDOW, p, None, 0.5, None, 2.0, None, None, coverage)


# each value type: a maker of equal values, a different value, and the exact repr of the first
VALUE_TYPES = {
    "YearWindow": (
        lambda: YearWindow(2009, 2013), YearWindow(2009, 2014),
        "YearWindow(start_year=2009, end_year=2013)",
    ),
    "AuthorCorpus": (
        lambda: AuthorCorpus("a", [EVENT]), AuthorCorpus("a", [EVENT], "G"),
        "AuthorCorpus(author_id='a', events=(Event(kind=<EventKind.PUBLICATION: 'publication'>, "
        "journal='J1', year=2010, count=2),), group=None)",
    ),
    "CoverageDiagnostics": (
        lambda: CoverageDiagnostics(3, 2, 1), CoverageDiagnostics(3, 3, 0),
        "CoverageDiagnostics(total_count=3, matched_count=2, dropped_count=1)",
    ),
    "IndicatorProfile": (
        profile, profile(p=2.0),
        "IndicatorProfile(author_id='a', indicator='SJR', window=YearWindow(start_year=2009, end_year=2013), "
        "p=1.0, i=None, r=0.5, p_over_i=None, p_over_r=2.0, i_over_r=None, pi_over_2r=None, "
        "coverage={<EventKind.CITATION: 'citation'>: "
        "CoverageDiagnostics(total_count=3, matched_count=2, dropped_count=1)})",
    ),
    "MissingValuePolicy": (
        lambda: MissingValuePolicy("nearest", 2), MissingValuePolicy("nearest", 3),
        "MissingValuePolicy(mode='nearest', max_distance=2)",
    ),
    "ScalarMetrics": (
        lambda: ScalarMetrics("x", 3, 4, 2), ScalarMetrics("x", 3, 5, 2),
        "ScalarMetrics(author_id='x', papers=3, cites=4, h=2)",
    ),
}
each_type = pytest.mark.parametrize("name", VALUE_TYPES)


def fields(value) -> list[str]:
    """A value's field names: its constructor's parameters."""
    return list(inspect.signature(type(value)).parameters)


class TestValueSemantics:
    """The six checked value types compare, hash, print and refuse changes as frozen dataclasses did."""

    @each_type
    def test_equality(self, name):
        make, other, _ = VALUE_TYPES[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != other and not a == other

    @each_type
    def test_another_class_is_not_implemented(self, name):
        make, _, _ = VALUE_TYPES[name]
        value = make()
        values = tuple(getattr(value, field) for field in fields(value))
        assert value.__eq__(values) is False
        assert value.__eq__(object()) is NotImplemented
        assert value != values

    @each_type
    def test_a_plain_tuple_of_the_fields_is_unequal(self, name):
        make, _, _ = VALUE_TYPES[name]
        value = make()
        values = tuple(getattr(value, field) for field in fields(value))
        assert not value == values and not values == value
        assert value != values and values != value
        assert value == mock.ANY and not value != mock.ANY

    def test_an_event_equals_the_plain_tuple_of_its_fields(self):
        values = (EventKind.PUBLICATION, "J1", 2010, 2)
        assert EVENT == values and values == EVENT and not EVENT != values and hash(EVENT) == hash(values)

    @each_type
    def test_of_checked_takes_one_tuple_of_the_fields(self, name):
        make, _, text = VALUE_TYPES[name]
        value = make()
        checked = type(value)._of_checked(tuple(value))
        for made in (checked, pickle.loads(pickle.dumps(checked))):
            assert type(made) is type(value) and made == value and repr(made) == text
        if name == "IndicatorProfile":  # its coverage is a dict
            with pytest.raises(TypeError):
                hash(checked)
        else:
            assert hash(checked) == hash(value)

    @each_type
    def test_hash(self, name):
        make, _, _ = VALUE_TYPES[name]
        if name == "IndicatorProfile":  # its coverage is a dict
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert len({make(), make()}) == 1

    @each_type
    def test_repr(self, name):
        make, _, text = VALUE_TYPES[name]
        assert repr(make()) == text

    @each_type
    def test_assignment_and_deletion_raise(self, name):
        make, _, _ = VALUE_TYPES[name]
        value = make()
        for field in (*fields(value), "extra"):
            with pytest.raises(AttributeError, match=re.escape(f"cannot assign to field {field!r}")):
                setattr(value, field, 0)
            with pytest.raises(AttributeError, match=re.escape(f"cannot delete field {field!r}")):
                delattr(value, field)
        assert repr(value) == VALUE_TYPES[name][2]

    @each_type
    def test_pickle_and_copy(self, name):
        make, _, text = VALUE_TYPES[name]
        value = make()
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value and repr(clone) == text

    def test_keyword_construction_and_defaults(self):
        assert YearWindow(end_year=2013, start_year=2009) == WINDOW
        corpus = AuthorCorpus(events=iter([EVENT]), author_id="a")
        assert corpus.group is None and corpus.events == (EVENT,)
        assert CoverageDiagnostics() == CoverageDiagnostics(0, 0, 0)
        assert CoverageDiagnostics(dropped_count=2, total_count=2).matched_count == 0
        assert MissingValuePolicy(mode="drop").max_distance == 0
        assert ScalarMetrics(h=1, cites=1, papers=1, author_id="x") == ScalarMetrics("x", 1, 1, 1)

    def test_coverage_is_a_fresh_copy(self):
        given_coverage = dict(COVERAGE)
        made = profile(coverage=given_coverage)
        assert made.coverage == given_coverage and made.coverage is not given_coverage
        bare = [IndicatorProfile("a", "SJR", WINDOW, None, None, None, None, None, None, None) for _ in range(2)]
        assert bare[0].coverage == {} and bare[0].coverage is not bare[1].coverage

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: YearWindow(2013, 2009), ModelError, "window start 2013 is after end 2009"),
            (lambda: AuthorCorpus("", ()), ModelError, "author_id must be non-empty"),
            (lambda: AuthorCorpus("a", (), ""), ModelError, "group, when present, must be non-empty"),
            (lambda: CoverageDiagnostics(1, -1, 2), ModelError, "coverage counts must be non-negative"),
            (lambda: CoverageDiagnostics(3, 1, 1), ModelError,
             "coverage counts inconsistent: 1 matched + 1 dropped != 3 total"),
            (lambda: profile(p=-1.0), ModelError, "dimension p must be non-negative, got -1.0"),
            (lambda: IndicatorProfile("a", "SJR", WINDOW, None, None, -2, None, None, None, None), ModelError,
             "dimension r must be non-negative, got -2"),
            (lambda: MissingValuePolicy("sometimes"), EngineError, "unknown missing-value mode 'sometimes'"),
            (lambda: MissingValuePolicy("nearest", -1), EngineError, "max_distance must be non-negative"),
            (lambda: ScalarMetrics("x", 1, -1, 0), IngestError, "'x': negative scalar metric"),
            (lambda: ScalarMetrics("x", 1, 5, 2), IngestError, "'x': h (2) exceeds paper count (1)"),
            (lambda: ScalarMetrics("x", 3, 1, 2), IngestError, "'x': h (2) exceeds citation count (1)"),
        ],
    )
    def test_constructor_checks(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_merged_is_computed_once(self, monkeypatch):
        calls = []
        merge_counts = model.merge_counts
        monkeypatch.setattr(model, "merge_counts", lambda events: calls.append(1) or merge_counts(events))
        corpus = AuthorCorpus("a", [EVENT])
        first = corpus.merged
        assert corpus.merged is first and corpus.merged_counts(EventKind.PUBLICATION) == {("J1", 2010): 2}
        assert len(calls) == 1
