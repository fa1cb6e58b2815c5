import contextlib
import math
import random
import re
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirmetrics import engine
from pirmetrics.engine import (
    BatchError,
    EngineError,
    MissingImpactError,
    MissingValuePolicy,
    WindowPolicy,
    compute_profile,
    compute_profiles,
    weighted_mean_impact,
)
from pirmetrics.model import (
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    ImpactTable,
    IndicatorProfile,
    YearWindow,
)

WIN = YearWindow(2009, 2013)
PUB = EventKind.PUBLICATION


def table_of(*entries):
    return ImpactTable([(j, y, "SJR", v) for j, y, v in entries])


def pub(j, y, c):
    return Event(PUB, j, y, c)


class TestWeightedMeanImpact:
    def test_single_event_is_the_impact_itself(self):
        value, diag = weighted_mean_impact(
            [pub("J1", 2010, 1)], table_of(("J1", 2010, 2.0)), "SJR", WIN
        )
        assert value == 2.0
        assert diag.total_count == 1 and diag.matched_count == 1

    def test_two_journal_weighted_mean(self):
        table = table_of(("J1", 2010, 1.5), ("J2", 2010, 3.0))
        value, diag = weighted_mean_impact(
            [pub("J1", 2010, 2), pub("J2", 2010, 3)], table, "SJR", WIN
        )
        assert value == pytest.approx((2 * 1.5 + 3 * 3.0) / 5, abs=1e-12)
        assert value == pytest.approx(2.4, abs=1e-12)

    def test_empty_events_undefined_not_error(self):
        value, diag = weighted_mean_impact([], table_of(), "SJR", WIN)
        assert value is None
        assert diag.total_count == 0 and diag.matched_count == 0 and diag.dropped_count == 0

    def test_mixed_kinds_rejected(self):
        with pytest.raises(EngineError):
            weighted_mean_impact(
                [pub("J1", 2010, 1), Event(EventKind.CITATION, "J1", 2010, 1)],
                table_of(("J1", 2010, 1.0)),
                "SJR",
                WIN,
            )

    def test_strict_policy_names_first_missing_pair(self):
        table = table_of(("J1", 2010, 1.0))
        events = [pub("J3", 2012, 1), pub("J2", 2011, 1), pub("J1", 2010, 1)]
        with pytest.raises(MissingImpactError) as excinfo:
            weighted_mean_impact(
                events, table, "SJR", WIN, missing=MissingValuePolicy(MissingValuePolicy.STRICT)
            )
        # the smallest missing (journal, year), though J3 is met first
        assert excinfo.value.journal == "J2"
        assert excinfo.value.year == 2011
        assert "J2" in str(excinfo.value) and "2011" in str(excinfo.value)

    def test_drop_renormalizes_over_matched(self):
        table = table_of(("J1", 2010, 2.0))
        value, diag = weighted_mean_impact(
            [pub("J1", 2010, 1), pub("J2", 2010, 9)], table, "SJR", WIN
        )
        assert value == 2.0  # the dropped journal no longer dilutes
        assert diag.total_count == 10
        assert diag.matched_count == 1
        assert diag.dropped_count == 9

    def test_all_dropped_is_undefined(self):
        value, diag = weighted_mean_impact(
            [pub("J2", 2010, 4)], table_of(("J1", 2010, 1.0)), "SJR", WIN
        )
        assert value is None
        assert diag.dropped_count == 4 and diag.matched_count == 0

    def test_nearest_year_substitutes_within_distance(self):
        table = table_of(("J1", 2009, 1.0), ("J1", 2012, 4.0))
        value, _ = weighted_mean_impact(
            [pub("J1", 2011, 1)],
            table,
            "SJR",
            WIN,
            missing=MissingValuePolicy(MissingValuePolicy.NEAREST, 1),
        )
        assert value == 4.0  # 2012 is one year away, 2009 is two

    def test_nearest_year_tie_prefers_earlier(self):
        table = table_of(("J1", 2010, 1.0), ("J1", 2012, 4.0))
        value, _ = weighted_mean_impact(
            [pub("J1", 2011, 1)],
            table,
            "SJR",
            WIN,
            missing=MissingValuePolicy(MissingValuePolicy.NEAREST, 1),
        )
        assert value == 1.0

    def test_nearest_year_beyond_distance_drops(self):
        table = table_of(("J1", 2009, 1.0))
        value, diag = weighted_mean_impact(
            [pub("J1", 2012, 1)],
            table,
            "SJR",
            WIN,
            missing=MissingValuePolicy(MissingValuePolicy.NEAREST, 2),
        )
        assert value is None
        assert diag.dropped_count == 1

    def test_strict_window_excludes_outside_years_for_all_kinds(self):
        table = table_of(("J1", 2008, 9.0), ("J1", 2010, 2.0))
        for kind in EventKind:
            events = [Event(kind, "J1", 2008, 5), Event(kind, "J1", 2010, 1)]
            value, diag = weighted_mean_impact(events, table, "SJR", WIN)
            assert value == 2.0
            assert diag.total_count == 1  # out-of-window events are not eligible

    def test_open_references_admits_outside_years_for_cit_and_ref(self):
        table = table_of(("J1", 2008, 9.0), ("J1", 2010, 2.0))
        for kind in (EventKind.CITATION, EventKind.REFERENCE):
            events = [Event(kind, "J1", 2008, 1), Event(kind, "J1", 2010, 1)]
            value, diag = weighted_mean_impact(
                events, table, "SJR", WIN, window_policy=WindowPolicy.OPEN_REFERENCES
            )
            assert value == pytest.approx(5.5, abs=1e-12)  # valued at their own year
            assert diag.total_count == 2

    def test_open_references_still_windows_publications(self):
        table = table_of(("J1", 2008, 9.0), ("J1", 2010, 2.0))
        value, _ = weighted_mean_impact(
            [pub("J1", 2008, 5), pub("J1", 2010, 1)],
            table,
            "SJR",
            WIN,
            window_policy=WindowPolicy.OPEN_REFERENCES,
        )
        assert value == 2.0

    def test_policy_parsing(self):
        assert MissingValuePolicy.parse("strict").mode == "strict"
        assert MissingValuePolicy.parse("drop").mode == "drop"
        nearest = MissingValuePolicy.parse("nearest:2")
        assert nearest.mode == "nearest" and nearest.max_distance == 2
        for text in ("nearest:two", "nearest:1_0", "nearest:\u0661"):  # digits as the input files read them
            with pytest.raises(EngineError, match="bad nearest-year distance"):
                MissingValuePolicy.parse(text)
        with pytest.raises(EngineError):
            MissingValuePolicy.parse("fuzzy")
        assert WindowPolicy.parse("open-references") is WindowPolicy.OPEN_REFERENCES
        with pytest.raises(EngineError):
            WindowPolicy.parse("porous")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for the given wall-clock seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNearestYearReach:
    # J1 spans the family's 2005..2014; J2 has 2005 only; J3 has 2007 and 2013
    TABLE = table_of(("J1", 2005, 1.0), ("J1", 2014, 3.0), ("J2", 2005, 2.0), ("J3", 2007, 5.0), ("J3", 2013, 7.0))
    SPAN = 2014 - 2005

    def test_year_spans(self):
        table = ImpactTable([("J1", 2009, "SJR", 1.0), ("J2", 2003, "SJR", 1.0), ("J1", 2011, "SNIP", 1.0)])
        assert table.year_spans == {"SJR": (2003, 2009), "SNIP": (2011, 2011)}
        assert ImpactTable().year_spans == {}

    @pytest.mark.parametrize(
        "event, value",
        [
            pytest.param(pub("J1", 2010, 1), 3.0, id="nearer-end"),
            pytest.param(pub("J2", 2013, 1), 2.0, id="far-end-of-span"),
            pytest.param(pub("J3", 2010, 1), 5.0, id="tie-goes-to-earlier"),
            pytest.param(pub("J9", 2010, 1), None, id="journal-not-in-table"),
            pytest.param(Event(EventKind.CITATION, "J1", 2020, 1), 3.0, id="year-after-the-span"),
            # the span's nearer end is 10**9 years away, exactly K = 10**9
            pytest.param(Event(EventKind.CITATION, "J1", 2014 + 10**9, 1), 3.0, id="year-far-after-the-span"),
            pytest.param(Event(EventKind.CITATION, "J1", 2005 - 10**9, 1), 1.0, id="year-far-before-the-span"),
        ],
    )
    def test_far_reach_matches_the_span_quickly(self, event, value):
        def weighted_mean(distance):
            missing = MissingValuePolicy(MissingValuePolicy.NEAREST, distance)
            return weighted_mean_impact([event], self.TABLE, "SJR", WIN, missing, WindowPolicy.OPEN_REFERENCES)

        first, last = self.TABLE.year_spans["SJR"]
        reach = self.SPAN + max(0, event.year - last, first - event.year)  # every year of the span is in reach
        # a search that walks every empty year, to 10**9 or from 10**9, would run for minutes
        with deadline(5.0):
            near = weighted_mean(reach)
            far = weighted_mean(10**9)
        assert near[0] == value
        assert far == near

    def test_far_reach_in_an_unknown_family_drops_quickly(self):
        with deadline(5.0):
            value, diag = weighted_mean_impact(
                [pub("J1", 2010, 1)], self.TABLE, "SNIP", WIN, MissingValuePolicy(MissingValuePolicy.NEAREST, 10**9)
            )
        assert value is None and diag.dropped_count == 1


class TestComputeProfile:
    @pytest.mark.parametrize(
        "window_policy, named",
        [(WindowPolicy.STRICT, ("B", 2010)), (WindowPolicy.OPEN_REFERENCES, ("A", 2005))],
        ids=["strict-window", "open-references"],
    )
    def test_strict_names_smallest_eligible_gap(self, window_policy, named):
        # ("A", 2005) sorts first but lies outside the window
        corpus = AuthorCorpus(
            "x", tuple(Event(EventKind.CITATION, j, y, 1) for j, y in (("C", 2011), ("B", 2010), ("A", 2005)))
        )
        with pytest.raises(MissingImpactError) as excinfo:
            strict = MissingValuePolicy(MissingValuePolicy.STRICT)
            compute_profile(corpus, table_of(("C", 2011, 1.0)), "SJR", WIN, strict, window_policy)
        assert (excinfo.value.journal, excinfo.value.year) == named
        assert str(excinfo.value) == f"no SJR impact value for journal {named[0]!r} in year {named[1]}"

    def test_strict_names_the_publication_gap_first(self):
        corpus = AuthorCorpus("x", (Event(EventKind.CITATION, "A", 2010, 1), pub("Z", 2011, 1)))
        with pytest.raises(MissingImpactError) as excinfo:
            compute_profile(corpus, table_of(), "SJR", WIN, MissingValuePolicy(MissingValuePolicy.STRICT))
        assert (excinfo.value.journal, excinfo.value.year) == ("Z", 2011)

    def test_ratio_from_p_and_i(self):
        # one publication at 2.817 and one citation at 1.936
        table = ImpactTable(
            [("A", 2010, "SJR", 2.817), ("B", 2010, "SJR", 1.936)]
        )
        corpus = AuthorCorpus(
            "x",
            (pub("A", 2010, 1), Event(EventKind.CITATION, "B", 2010, 1)),
        )
        profile = compute_profile(corpus, table, "SJR", WIN)
        assert profile.p == pytest.approx(2.817, abs=1e-12)
        assert profile.i == pytest.approx(1.936, abs=1e-12)
        assert profile.p_over_i == pytest.approx(1.455, abs=0.002)
        assert profile.r is None
        assert profile.p_over_r is None and profile.i_over_r is None
        assert profile.pi_over_2r is None

    def test_identical_streams_give_unit_ratios(self):
        table = table_of(("J1", 2010, 1.7))
        corpus = AuthorCorpus(
            "x", tuple(Event(kind, "J1", 2010, 3) for kind in EventKind)
        )
        profile = compute_profile(corpus, table, "SJR", WIN)
        assert profile.p == profile.i == profile.r == 1.7
        assert profile.p_over_i == 1.0
        assert profile.p_over_r == 1.0
        assert profile.i_over_r == 1.0
        assert profile.pi_over_2r == 1.0

    def test_direct_arithmetic_oracle(self):
        table = ImpactTable(
            [("A", 2010, "SJR", 1.0), ("B", 2010, "SJR", 2.0), ("C", 2010, "SJR", 4.0)]
        )
        corpus = AuthorCorpus(
            "x",
            (
                pub("A", 2010, 1),
                Event(EventKind.CITATION, "B", 2010, 1),
                Event(EventKind.REFERENCE, "C", 2010, 1),
            ),
        )
        profile = compute_profile(corpus, table, "SJR", WIN)
        assert profile.p_over_r == 0.25
        assert profile.i_over_r == 0.5
        assert profile.pi_over_2r == 0.375
        assert profile.pi_over_2r == pytest.approx(
            (profile.p_over_r + profile.i_over_r) / 2, abs=1e-12
        )

    def test_coverage_attached_per_kind(self):
        table = table_of(("J1", 2010, 1.0))
        corpus = AuthorCorpus(
            "x", (pub("J1", 2010, 2), Event(EventKind.REFERENCE, "J2", 2010, 3))
        )
        profile = compute_profile(corpus, table, "SJR", WIN)
        assert profile.coverage[PUB].matched_count == 2
        assert profile.coverage[EventKind.REFERENCE].dropped_count == 3
        assert profile.coverage[EventKind.CITATION].total_count == 0

    @pytest.mark.parametrize(
        "entries, events, cell",
        [
            # a subnormal citing-journal impact: P/I overflows
            ([("A", 2010, 1.5), ("B", 2010, 1e-310)], [pub("A", 2010, 1), ("B", 2010, 1)], "pi_sjr"),
            # count * impact overflows
            ([("A", 2010, 1e308)], [pub("A", 2010, 2)], "p_sjr"),
            # the sum of two finite terms overflows
            ([("A", 2010, 1e308), ("B", 2010, 1e308)], [pub("A", 2010, 1), pub("B", 2010, 1)], "p_sjr"),
        ],
    )
    def test_non_finite_cell_raises_naming_it(self, entries, events, cell):
        corpus = AuthorCorpus(
            "x", tuple(e if isinstance(e, Event) else Event(EventKind.CITATION, *e) for e in events)
        )
        with pytest.raises(EngineError, match=rf"^SJR cell {cell} is not finite \(inf\)$"):
            compute_profile(corpus, table_of(*entries), "SJR", WIN)


class TestComputeProfiles:
    def test_empty_batch(self):
        assert compute_profiles([], table_of(), "SJR", WIN) == []

    @pytest.mark.parametrize("policy", ["strict", "drop", "nearest:2"])
    def test_sorted_by_author_and_equal_to_individual(self, policy):
        missing = MissingValuePolicy.parse(policy)
        table = table_of(("J1", 2010, 1.0), ("J2", 2011, 2.0), ("J3", 2009, 4.0))
        corpora = [
            AuthorCorpus("zeta", (pub("J1", 2010, 1), pub("J1", 2011, 3))),  # J1 has no 2011
            AuthorCorpus("alpha", (pub("J2", 2011, 2),)),
            AuthorCorpus("mid", (pub("J3", 2011, 1), pub("J1", 2011, 2))),  # J3 has no 2011; the same J1 gap again
        ]
        try:
            batch, failed = compute_profiles(corpora, table, "SJR", WIN, missing), []
        except BatchError as exc:
            batch, failed = exc.profiles, [author_id for author_id, _ in exc.failures]
        assert [p.author_id for p in batch] == (["alpha"] if policy == "strict" else ["alpha", "mid", "zeta"])
        assert failed == (["mid", "zeta"] if policy == "strict" else [])
        for corpus in corpora:
            if corpus.author_id in failed:
                with pytest.raises(MissingImpactError):
                    compute_profile(corpus, table, "SJR", WIN, missing)
            else:
                assert compute_profile(corpus, table, "SJR", WIN, missing) in batch
        if policy == "nearest:2":  # J1 2011 is 2010's value, J3 2011 is 2009's
            assert [p.p for p in batch] == [2.0, (1 * 4.0 + 2 * 1.0) / 3, (1 * 1.0 + 3 * 1.0) / 4]

    def test_each_batch_fills_its_gaps_from_its_own_table_and_family(self):
        # two tables that differ only in the 2010 values that fill both authors' 2011 gap
        missing = MissingValuePolicy.parse("nearest:1")
        corpora = [AuthorCorpus(author_id, (pub("J1", 2011, 1),)) for author_id in ("a", "b")]
        for values in ({"SJR": 1.0, "SNIP": 2.0}, {"SJR": 3.0, "SNIP": 4.0}):
            table = ImpactTable([("J1", 2010, family, value) for family, value in values.items()])
            for family, value in values.items():
                batch = compute_profiles(corpora, table, family, WIN, missing)
                assert [(p.p, p.coverage[PUB]) for p in batch] == [(value, CoverageDiagnostics(1, 1, 0))] * 2

    @pytest.mark.parametrize(
        "policy, calls, ps", [("nearest:1", 1, [3.0, 2.5]), ("drop", 1, [4.0, 4.0]), ("strict", 0, None)]
    )
    def test_a_gap_two_streams_lack_is_filled_once_per_batch(self, monkeypatch, policy, calls, ps):
        # both authors lack (J1, 2011): nearest:1 fills it with 2010's value, drop leaves it out, strict raises
        missing = MissingValuePolicy.parse(policy)
        table = table_of(("J1", 2010, 2.0), ("J2", 2011, 4.0))
        corpora = [
            AuthorCorpus("a", (pub("J1", 2011, 1), pub("J2", 2011, 1))),
            AuthorCorpus("b", (pub("J1", 2011, 3), pub("J2", 2011, 1))),
        ]

        def batch():
            try:
                profiles = compute_profiles(corpora, table, "SJR", WIN, missing)
                return [(p.author_id, p.p, p.coverage[PUB]) for p in profiles]
            except BatchError as exc:
                return [(author_id, str(error)) for author_id, error in exc.failures]

        unpatched, fills = batch(), []
        fill = engine._missing_value
        monkeypatch.setattr(engine, "_missing_value", lambda *args: fills.append(args[0]) or fill(*args))
        assert batch() == unpatched
        assert fills == [("J1", 2011)] * calls
        if ps is None:
            assert unpatched == [(a, "no SJR impact value for journal 'J1' in year 2011") for a in ("a", "b")]
        else:
            assert [p for _, p, _ in unpatched] == ps

    def test_duplicate_author_ids_rejected(self):
        corpora = [AuthorCorpus("a", ()), AuthorCorpus("a", ())]
        with pytest.raises(EngineError):
            compute_profiles(corpora, table_of(), "SJR", WIN)

    def test_failures_aggregated_with_attribution(self):
        table = table_of(("J1", 2010, 1.0))
        corpora = [
            AuthorCorpus("ok", (pub("J1", 2010, 1),)),
            AuthorCorpus("bad", (pub("JX", 2010, 1),)),
            AuthorCorpus("worse", (pub("JY", 2011, 1),)),
        ]
        with pytest.raises(BatchError) as excinfo:
            compute_profiles(
                corpora, table, "SJR", WIN, missing=MissingValuePolicy(MissingValuePolicy.STRICT)
            )
        err = excinfo.value
        assert [a for a, _ in err.failures] == ["bad", "worse"]
        assert [p.author_id for p in err.profiles] == ["ok"]
        assert "bad" in str(err)

    def test_fail_fast_aborts_on_first(self):
        table = table_of(("J1", 2010, 1.0))
        corpora = [
            AuthorCorpus("bad", (pub("JX", 2010, 1),)),
            AuthorCorpus("ok", (pub("J1", 2010, 1),)),
        ]
        with pytest.raises(EngineError) as excinfo:
            compute_profiles(
                corpora,
                table,
                "SJR",
                WIN,
                missing=MissingValuePolicy(MissingValuePolicy.STRICT),
                fail_fast=True,
            )
        assert not isinstance(excinfo.value, BatchError)
        assert "bad" in str(excinfo.value)


# ---------------------------------------------------------------------------
# property tests

events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["J1", "J2", "J3", "J4"]),
        st.integers(2009, 2013),
        st.integers(1, 20),
    ),
    min_size=1,
    max_size=12,
)

impacts_strategy = st.fixed_dictionaries(
    {
        (j, y): st.floats(0.01, 50.0)
        for j in ["J1", "J2", "J3", "J4"]
        for y in range(2009, 2014)
    }
)


@given(events_strategy, impacts_strategy, st.floats(1e-6, 1e6))
@settings(max_examples=150)
def test_scale_equivariance(raw_events, impacts, factor):
    table = ImpactTable([(j, y, "SJR", v) for (j, y), v in impacts.items()])
    corpus = AuthorCorpus(
        "x",
        tuple(
            Event(kind, j, y, c)
            for kind in EventKind
            for j, y, c in raw_events
        ),
    )
    base = compute_profile(corpus, table, "SJR", WIN)
    scaled = compute_profile(corpus, table.scaled(factor), "SJR", WIN)
    for name in ("p", "i", "r"):
        v, sv = getattr(base, name), getattr(scaled, name)
        assert sv == pytest.approx(v * factor, rel=1e-12)
    for name in ("p_over_i", "p_over_r", "i_over_r", "pi_over_2r"):
        v, sv = getattr(base, name), getattr(scaled, name)
        assert sv == pytest.approx(v, rel=1e-12)


@given(events_strategy, impacts_strategy)
@settings(max_examples=150)
def test_weight_normalization(raw_events, impacts):
    # drop half the table so renormalisation paths are exercised too
    entries = [(j, y, "SJR", v) for (j, y), v in impacts.items() if (int(j[1]) + y) % 2]
    table = ImpactTable(entries)
    events = [Event(PUB, j, y, c) for j, y, c in raw_events]
    value, diag = weighted_mean_impact(events, table, "SJR", WIN)
    if value is None:
        assert diag.matched_count == 0
        return
    merged = AuthorCorpus("x", tuple(events)).merged_counts(PUB)
    weights = [
        c / diag.matched_count
        for (j, y), c in merged.items()
        if table.get(j, y, "SJR") is not None
    ]
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


@given(events_strategy, impacts_strategy)
@settings(max_examples=150)
def test_count_splitting_invariance(raw_events, impacts):
    table = ImpactTable([(j, y, "SJR", v) for (j, y), v in impacts.items()])
    merged_events = tuple(Event(PUB, j, y, c) for j, y, c in raw_events)
    split_events = tuple(
        Event(PUB, j, y, 1) for j, y, c in raw_events for _ in range(c)
    )
    v1, d1 = weighted_mean_impact(merged_events, table, "SJR", WIN)
    v2, d2 = weighted_mean_impact(split_events, table, "SJR", WIN)
    assert d1 == d2
    assert v1 == pytest.approx(v2, rel=1e-12)


@given(events_strategy, impacts_strategy)
@settings(max_examples=150)
def test_convexity_bound(raw_events, impacts):
    table = ImpactTable([(j, y, "SJR", v) for (j, y), v in impacts.items()])
    events = [Event(PUB, j, y, c) for j, y, c in raw_events]
    value, _ = weighted_mean_impact(events, table, "SJR", WIN)
    if value is None:
        return
    matched_values = [
        impacts[(j, y)]
        for j, y, _ in raw_events
        if (j, y) in impacts
    ]
    assert min(matched_values) - 1e-9 <= value <= max(matched_values) + 1e-9


# ---------------------------------------------------------------------------
# reference check on a seeded synthetic batch

FAMILIES = ("SJR", "SNIP")
JOURNALS = [f"J{k}" for k in range(8)]
FULLY_COVERED = JOURNALS[:2]  # authors whose events use only these survive the strict policy


def synthetic_batch(seed: int):
    """Corpora with repeated (kind, journal, year) rows, out-of-window years and impact gaps."""
    rng = random.Random(seed)
    impacts = {
        (j, y, fam): round(rng.uniform(0.05, 9.0), rng.choice((1, 3, 7)))
        for j in JOURNALS
        for y in range(2003, 2020)
        for fam in FAMILIES
        if j in FULLY_COVERED or rng.random() < 0.6
    }
    corpora = []
    for a in range(30):
        journals = FULLY_COVERED if a % 5 == 0 else JOURNALS
        events = [
            Event(rng.choice(list(EventKind)), rng.choice(journals), rng.randint(2005, 2017), rng.randint(1, 9))
            for _ in range(rng.randint(0, 40))
        ]
        events += events[: len(events) // 4]  # the same rows again
        rng.shuffle(events)
        corpora.append(AuthorCorpus(f"author-{rng.randrange(10**6):06d}-{a}", tuple(events), group=None))
    return corpora, impacts


def reference_stream(events, kind, impacts, family, mode, distance, open_years):
    """Merge, filter, sort and fsum one stream directly; ("missing", journal, year) under strict."""
    counts: dict[tuple, int] = {}
    for e in events:
        if e.kind is kind and (open_years or WIN.start_year <= e.year <= WIN.end_year):
            counts[(e.journal, e.year)] = counts.get((e.journal, e.year), 0) + e.count
    terms, matched, dropped = [], 0, 0
    for journal, year in sorted(counts):
        value = impacts.get((journal, year, family))
        if value is None and mode == "strict":
            return ("missing", journal, year)
        for d in range(1, distance + 1):
            if value is not None:
                break
            value = impacts.get((journal, year - d, family))
            if value is None:
                value = impacts.get((journal, year + d, family))
        if value is None:
            dropped += counts[(journal, year)]
        else:
            matched += counts[(journal, year)]
            terms.append(counts[(journal, year)] * value)
    mean = math.fsum(terms) / matched if matched else None
    return mean, CoverageDiagnostics(matched + dropped, matched, dropped)


# nearest:20 reaches past the batch's 2003..2019 impact years from every event year
@pytest.mark.parametrize("policy", ["strict", "drop", "nearest:2", "nearest:20"])
@pytest.mark.parametrize("window_policy", list(WindowPolicy))
@pytest.mark.parametrize("seed", [1, 2])
def test_engine_matches_direct_reference_bitwise(policy, window_policy, seed):
    corpora, impacts = synthetic_batch(seed)
    table = ImpactTable((j, y, fam, v) for (j, y, fam), v in impacts.items())
    missing = MissingValuePolicy.parse(policy)
    distance = missing.max_distance
    open_refs = window_policy is WindowPolicy.OPEN_REFERENCES
    by_author = {c.author_id: c for c in corpora}
    coverages = []  # each profile's coverage dict, over both families
    for family in FAMILIES:  # the second family reuses each corpus's cached merge
        try:
            profiles, failures = compute_profiles(corpora, table, family, WIN, missing, window_policy), []
        except BatchError as exc:
            profiles, failures = exc.profiles, exc.failures
        assert len(profiles) + len(failures) == len(corpora)
        for author_id, exc in failures:
            assert policy == "strict" and isinstance(exc, MissingImpactError)
            streams = [
                reference_stream(by_author[author_id].events, kind, impacts, family, "strict", 0,
                                 open_refs and kind is not PUB)
                for kind in EventKind
            ]
            first = next(s for s in streams if s[0] == "missing")
            assert (exc.journal, exc.year, exc.indicator) == (first[1], first[2], family)
        if policy == "strict":
            assert profiles and failures  # both outcomes are exercised
        for profile in profiles:
            # the engine builds its values unchecked; the checked constructors give the same ones
            assert profile == IndicatorProfile(*profile)
            for diag in profile.coverage.values():
                checked = CoverageDiagnostics(*diag)
                assert diag == checked and repr(diag) == repr(checked)
            coverages.append(profile.coverage)
            events = by_author[profile.author_id].events
            dims = {}
            for kind in EventKind:
                args = (impacts, family, missing.mode, distance, open_refs and kind is not PUB)
                want = reference_stream(events, kind, *args)
                assert want[0] != "missing"
                dims[kind] = want[0]
                assert profile.coverage[kind] == want[1]
                direct = weighted_mean_impact(
                    [e for e in events if e.kind is kind], table, family, WIN, missing, window_policy
                )
                assert direct == want
            p, i, r = dims[PUB], dims[EventKind.CITATION], dims[EventKind.REFERENCE]
            assert (profile.p, profile.i, profile.r) == (p, i, r)
            assert profile.p_over_i == (p / i if p is not None and i else None)
            assert profile.p_over_r == (p / r if p is not None and r else None)
            assert profile.i_over_r == (i / r if i is not None and r else None)
            assert profile.pi_over_2r == ((p + i) / (2.0 * r) if p is not None and i is not None and r else None)
    assert len({id(coverage) for coverage in coverages}) == len(coverages)  # no two profiles share one


def test_readme_library_example_runs():
    """The python block under the README's "Library" heading runs as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.S | re.M).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert abs(namespace["profile"].p - 5.264) <= 1e-12
