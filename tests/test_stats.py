import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pirmetrics
from pirmetrics import stats
from pirmetrics.report import author_table_export, correlation_report
from pirmetrics.stats import (
    BoxplotSummary,
    CorrelationCell,
    DescriptiveSummary,
    GroupedSample,
    StatsError,
    average_ranks,
    boxplot,
    correlation_matrix,
    describe,
    pearson,
    spearman,
    _mean,
    _median,
    _quantile,
    _sample_std,
    _significance,
    _t_two_tailed_p,
    variance_decomposition,
)

finite_floats = st.floats(-1e6, 1e6)
samples = st.lists(finite_floats, min_size=1, max_size=60)


class TestDescribe:
    def test_singleton(self):
        s = describe([5])
        assert s.n == 1
        assert s.median == 5 and s.mean == 5
        assert s.sample_std == 0
        assert s.value_range == 0

    def test_even_median_is_midpoint(self):
        assert describe([1, 2, 3, 4]).median == 2.5

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            describe([])

    def test_nonfinite_rejected(self):
        with pytest.raises(StatsError):
            describe([1.0, float("nan")])

    @given(samples)
    def test_against_numpy(self, values):
        s = describe(values)
        assert s.median == pytest.approx(np.median(values), abs=1e-9)
        assert s.mean == pytest.approx(np.mean(values), abs=1e-6)
        if len(values) > 1:
            assert s.sample_std == pytest.approx(np.std(values, ddof=1), rel=1e-9, abs=1e-9)
        assert s.min == min(values) and s.max == max(values)

    @given(samples, st.randoms())
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert describe(shuffled) == describe(values)


class TestBoxplot:
    def test_five_point_hand_enumeration(self):
        b = boxplot([1, 2, 3, 4, 5])
        assert (b.q1, b.q2, b.q3) == (2, 3, 4)
        assert (b.whisker_low, b.whisker_high) == (1, 5)

    def test_constant_sample(self):
        b = boxplot([7, 7, 7, 7])
        assert b.q1 == b.q2 == b.q3 == b.whisker_low == b.whisker_high == 7

    def test_q2_equals_describe_median(self):
        values = [0.3, 1.9, 2.2, 8.0, 4.4, 4.4]
        assert boxplot(values).q2 == describe(values).median

    @given(samples)
    # interpolating as a*(1-f) + b*f put q3 at 0.0 here, below q2 = 5e-324
    @example([0.0, 5e-324, 5e-324])
    def test_quartile_rule_matches_linear_interpolation(self, values):
        b = boxplot(values)
        assert b.q1 == pytest.approx(np.percentile(values, 25), abs=1e-9)
        assert b.q3 == pytest.approx(np.percentile(values, 75), abs=1e-9)
        assert b.whisker_low <= b.q1 <= b.q2 <= b.q3 <= b.whisker_high

    def test_quartiles_of_a_span_beyond_the_float_range(self):
        b = boxplot([-1e308, 1e308])
        assert (b.q1, b.q2, b.q3) == (-5e307, 0.0, 5e307)


# each public function that checks a sample, called with the bad sample v,
# and its message for an empty one
CHECKED = {
    "describe": (describe, "empty sample"),
    "boxplot": (boxplot, "empty sample"),
    "average_ranks": (average_ranks, "empty sample"),
    "pearson-x": (lambda v: pearson(v, [1.0, 2.0, 3.0][: len(v)]), "empty sample"),
    "pearson-y": (lambda v: pearson([1.0, 2.0, 3.0][: len(v)], v), "empty sample"),
    "spearman-x": (lambda v: spearman(v, [1.0, 2.0, 3.0][: len(v)]), "empty sample"),
    "spearman-y": (lambda v: spearman([1.0, 2.0, 3.0][: len(v)], v), "empty sample"),
    # the grouped sample itself refuses an empty group
    "variance_decomposition": (
        lambda v: variance_decomposition(GroupedSample({"a": [1.0, 2.0], "b": v})), "group 'b' is empty"
    ),
}


class TestSingleCheck:
    """describe and boxplot check and sort their sample once; the result is the field-by-field one."""

    @given(samples)
    @example([0.0, -0.0])
    @example([-0.0, 0.0, 2.5, -0.0])
    def test_describe_equals_its_fields(self, values):
        lo, hi = min(values), max(values)
        expected = DescriptiveSummary(
            len(values), _median(sorted(values)), _mean(values), _sample_std(values), lo, hi, hi - lo
        )
        # repr tells 0.0 from -0.0, which == does not
        assert repr(describe(values)) == repr(expected)

    @given(samples)
    @example([0.0, -0.0])
    @example([-0.0, 0.0, 2.5, -0.0])
    def test_boxplot_equals_its_fields(self, values):
        ordered = sorted(values)
        expected = BoxplotSummary(
            _quantile(ordered, 0.25), _median(ordered), _quantile(ordered, 0.75), min(values), max(values)
        )
        assert repr(boxplot(values)) == repr(expected)

    @pytest.mark.parametrize(
        "values", [[], [1.0, math.nan], [2.0, math.inf, 1.0], [-math.inf, 1.0, 2.0]], ids=["empty", "nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_bad_sample_rejected_with_its_message(self, name, values):
        call, empty = CHECKED[name]
        message = "sample contains non-finite values" if values else empty
        with pytest.raises(StatsError, match=f"^{re.escape(message)}$"):
            call(values)


def decomposed(groups):
    return variance_decomposition(GroupedSample(groups))


class TestOverflow:
    """A statistic whose computation overflows the float range raises StatsError, never OverflowError or inf."""

    @pytest.mark.parametrize(
        "call, arg, name",
        [
            pytest.param(describe, [1e200, 0.0], "describe", id="describe-std"),  # squares a 5e199 deviation
            pytest.param(describe, [1e308, 1e308], "describe", id="describe-sum"),
            pytest.param(describe, [-1e308, 1e308], "describe", id="describe-range"),
            pytest.param(boxplot, [1e308, 1e308], "boxplot", id="boxplot-median"),
            pytest.param(decomposed, {"a": [1e200, 0.0], "b": [1.0]}, "variance decomposition", id="decomp-squares"),
            pytest.param(decomposed, {"a": [1e308], "b": [1e308]}, "variance decomposition", id="decomp-sum"),
        ],
    )
    def test_overflow_raises_stats_error(self, call, arg, name):
        with pytest.raises(StatsError, match=f"^{name} overflows the float range$"):
            call(arg)

    def test_finite_results_near_the_limit_are_kept(self):
        assert describe([1e308]).mean == 1e308
        assert describe([1e154, 0.0]).sample_std == pytest.approx(1e154 / math.sqrt(2))
        assert variance_decomposition(GroupedSample({"a": [1e150], "b": [0.0]})).total_ss == pytest.approx(5e299)


class TestVarianceDecomposition:
    def test_identical_means_zero_between(self):
        d = variance_decomposition(
            GroupedSample({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})
        )
        assert d.between_ss == pytest.approx(0.0, abs=1e-12)
        assert d.pct_reduction == pytest.approx(1.0, abs=1e-12)

    def test_two_groups_hand_check(self):
        # group means 1 and 5, grand mean 3:
        # within = 1+1+1+1, between = 2*4 + 2*4, total = 9+1+1+9
        d = variance_decomposition(GroupedSample({"a": [0.0, 2.0], "b": [4.0, 6.0]}))
        assert d.within_ss == pytest.approx(4.0)
        assert d.between_ss == pytest.approx(16.0)
        assert d.total_ss == pytest.approx(20.0)
        assert d.pct_reduction == pytest.approx(1 - 16.0 / 4.0)

    def test_needs_two_groups(self):
        with pytest.raises(StatsError):
            variance_decomposition(GroupedSample({"a": [1.0, 2.0]}))

    def test_empty_group_rejected(self):
        with pytest.raises(StatsError):
            GroupedSample({"a": [1.0], "b": []})

    def test_no_groups_rejected(self):
        with pytest.raises(StatsError, match="^at least one group required$"):
            GroupedSample({})

    def test_zero_within_is_undefined_reduction(self):
        d = variance_decomposition(GroupedSample({"a": [1.0, 1.0], "b": [2.0, 2.0]}))
        assert d.within_ss == 0
        assert d.pct_reduction is None

    def test_sum_of_squares_convention(self):
        # within equals sum over groups of (n_g - 1) * var_g
        g = {"a": [1.0, 3.0, 4.0], "b": [10.0, 11.0, 15.0, 16.0]}
        d = variance_decomposition(GroupedSample(g))
        expected = sum((len(v) - 1) * np.var(v, ddof=1) for v in g.values())
        assert d.within_ss == pytest.approx(expected, rel=1e-12)

    def test_thousand_random_grouped_samples_identity(self):
        rng = np.random.default_rng(20140401)
        for _ in range(1000):
            n_groups = int(rng.integers(2, 6))
            groups = {
                f"g{k}": rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), int(rng.integers(2, 12)))
                for k in range(n_groups)
            }
            d = variance_decomposition(GroupedSample(groups))
            assert d.total_ss == pytest.approx(d.within_ss + d.between_ss, rel=1e-9, abs=1e-9)


def _exact_pearson(x, y) -> float:
    """Pearson's r from exact rational arithmetic: r**2 is a Fraction, and only its square root rounds."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    r = math.sqrt(sxy * sxy / (sxx * syy))
    return r if sxy > 0 else -r  # sxy itself may be beyond the float range


def _pairwise_definition(columns, method):
    """correlation_matrix cell by cell: pearson or spearman on each pair's usable rows."""
    corr = {"pearson": pearson, "spearman": spearman}[method]
    cells = []
    for a, b in itertools.combinations(columns, 2):
        pairs = [
            (x, y) for x, y in zip(columns[a], columns[b])
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
        ]
        if len(pairs) < 3:
            cell = CorrelationCell(r=None, n=len(pairs), note=f"only {len(pairs)} usable pairs")
        else:
            cell = corr([x for x, _ in pairs], [y for _, y in pairs])
        cells.append((a, b, cell))
    return cells


# magnitudes from the least subnormal to the float maximum, with ties and holes
_extremes = [0.0, -0.0, 1.0, 5e-324, -5e-324, sys.float_info.min, 1e308, -1e308, sys.float_info.max]
_cells = st.one_of(
    st.floats(-1e308, 1e308), st.sampled_from(_extremes), st.sampled_from([None, math.nan, math.inf, -math.inf])
)


@st.composite
def _column_sets(draw):
    length = draw(st.integers(0, 12))
    columns = {}
    for name in "abcd"[: draw(st.integers(2, 4))]:
        if draw(st.booleans()):
            columns[name] = [draw(_cells)] * length
        else:
            columns[name] = draw(st.lists(_cells, min_size=length, max_size=length))
    return columns


class TestPearson:
    def test_self_correlation(self):
        cell = pearson([1.0, 2.0, 5.0, 3.0], [1.0, 2.0, 5.0, 3.0])
        assert cell.r == pytest.approx(1.0, abs=1e-12)
        assert cell.significance == 99

    def test_constant_input_undefined(self):
        cell = pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert cell.r is None
        assert cell.note == "constant input"

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(StatsError):
            pearson([1.0, 2.0], [2.0, 1.0])

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=3,
            max_size=40,
        )
    )
    # y is nearly constant: scipy warns NearConstantInputWarning and gives r = 0.408, numpy.corrcoef
    # too, while exact arithmetic gives r**2 = 1/4
    @example(pairs=[(0.0, 100.0), (0.0, 99.99999999999999), (1.0, 100.0)])
    # y is subnormal: its mean and deviations round to the subnormal grid unless scaled up first, and
    # scipy, without a warning, gives r = 0.816 where exact arithmetic gives 1
    @example(pairs=[(0.0, 0.0), (0.0, 0.0), (1.0, 5e-324)])
    # x's sums overflow unless x is scaled down first; scipy overflows to nan, exact arithmetic gives -2/sqrt(5)
    @example(pairs=[(1e308, 1.0), (1e308, 2.0), (0.5, 3.0), (3.0, 4.0)])
    def test_against_scipy(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert pearson(x, y).r is None
            return
        ours = pearson(x, y)
        assert ours.r == pytest.approx(_exact_pearson(x, y), abs=1e-9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref_r, ref_p = scipy.stats.pearsonr(x, y)
        # scipy is the less accurate side on near-constant or subnormal input: the exact oracle alone decides there
        near_constant = any(issubclass(w.category, scipy.stats.NearConstantInputWarning) for w in caught)
        if math.isnan(ref_r) or near_constant or any(0 < abs(v) < sys.float_info.min for v in x + y):
            return
        assert ours.r == pytest.approx(ref_r, abs=1e-9)

    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=25),
        st.floats(0.01, 10.0),
        st.floats(-5.0, 5.0),
    )
    # x + 1 = (1, 1, 1 + 2**-52): the mean rounds away a third of the spread
    @example(pairs=[(0.0, 0.0), (0.0, 0.0), (2**-52, 1.0)], a=1.0, b=1.0)
    def test_affine_equivariance(self, pairs, a, b):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        base = pearson(x, y) if len(set(x)) > 1 and len(set(y)) > 1 else None
        if base is None or base.r is None:
            return
        scaled_up = [a * v + b for v in x]
        scaled_down = [-a * v + b for v in x]
        if len(set(scaled_up)) < 2 or len(set(scaled_down)) < 2:
            return  # a*x + b collapsed to a constant in float arithmetic
        plus = pearson(scaled_up, y)
        minus = pearson(scaled_down, y)
        assert plus.r == pytest.approx(base.r, abs=1e-7)
        assert minus.r == pytest.approx(-base.r, abs=1e-7)

    def test_significance_levels_against_t_distribution(self):
        from pirmetrics.stats import _significance

        # n = 30 two-tailed critical r values: 0.306 / 0.361 / 0.463
        for r, expected in [(0.29, None), (0.31, 90), (0.37, 95), (0.47, 99)]:
            t = abs(r) * math.sqrt(28 / (1 - r * r))
            p = 2 * scipy.stats.t.sf(t, 28)
            oracle = 99 if p < 0.01 else 95 if p < 0.05 else 90 if p < 0.10 else None
            assert _significance(r, 30) == oracle == expected
        assert _significance(1.0, 5) == 99

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e308, 1e308), st.sampled_from(_extremes)), min_size=3, max_size=12))
    # near-constant: the rounded means sit an ulp from the exact ones
    @example(vals=[1.0, 1.0, 1.0 + 2**-52])
    @example(vals=[0.1] * 9 + [math.nextafter(0.1, 1.0)])
    @example(vals=[-1.0] * 11 + [1.0])
    def test_a_non_constant_vector_keeps_unit_deviations(self, vals):
        # so _deviations needs no zero-scale guard: only a constant vector has no deviation
        prepared = stats._deviations(vals)
        if len(set(vals)) == 1:
            assert prepared is None
            return
        dev, ss = prepared
        assert max(map(abs, dev)) == 1.0
        assert 1.0 <= ss <= len(vals)


class TestSpearman:
    def test_average_ranks_with_ties(self):
        assert average_ranks([1.0, 2.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([9, 9, 3, 9, 9]) == [3.5, 3.5, 1.0, 3.5, 3.5]

    def test_hand_rank_oracle(self):
        # both rank vectors equal (1, 2.5, 2.5, 4)
        cell = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 3.0, 4.0])
        assert cell.r == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_gives_unit_rho(self):
        x = [1.0, 2.0, 5.0, 9.0, 11.0]
        y = [v**3 for v in x]
        assert spearman(x, y).r == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=25),
    )
    def test_strictly_increasing_transform_invariance(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) == 1 or len(set(y)) == 1:
            return
        warped_x = [math.atan(v) for v in x]
        if len(set(warped_x)) < len(set(x)):
            return  # atan collapsed near-equal values into ties
        base = spearman(x, y)
        warped = spearman(warped_x, y)
        assert warped.r == pytest.approx(base.r, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=30
        )
    )
    def test_against_scipy(self, pairs):
        x = [float(p[0]) for p in pairs]
        y = [float(p[1]) for p in pairs]
        if len(set(x)) == 1 or len(set(y)) == 1:
            return
        ours = spearman(x, y)
        ref = scipy.stats.spearmanr(x, y).statistic
        assert ours.r == pytest.approx(ref, abs=1e-9)

    def test_brute_force_rank_oracle_exhaustive_small(self):
        # every vector of length <= 6 over a 3-letter alphabet
        def oracle_ranks(values):
            # explicit tie groups from an exhaustive sort
            ranks = [0.0] * len(values)
            remaining = sorted(range(len(values)), key=lambda k: values[k])
            pos = 0
            while remaining:
                tied = [i for i in remaining if values[i] == values[remaining[0]]]
                shared = sum(range(pos + 1, pos + len(tied) + 1)) / len(tied)
                for i in tied:
                    ranks[i] = shared
                remaining = [i for i in remaining if i not in tied]
                pos += len(tied)
            return ranks

        for n in range(1, 7):
            for values in itertools.product((0.0, 0.5, 2.0), repeat=n):
                assert average_ranks(list(values)) == oracle_ranks(list(values))


class TestCorrelationMatrix:
    def test_identical_columns_unit_offdiagonal(self):
        [(row, column, cell)] = correlation_matrix(
            {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, method="pearson"
        )
        assert (row, column) == ("a", "b")
        assert cell.r == pytest.approx(1.0)

    @pytest.mark.parametrize("names", ["abc", "wxyz"])
    def test_only_the_cells_above_the_diagonal_in_row_major_order(self, names):
        columns = {name: [float(k), float(k * k), float(k + 3), float(k % 2)] for k, name in enumerate(names)}
        cells = correlation_matrix(columns)
        assert [(row, column) for row, column, _ in cells] == list(itertools.combinations(names, 2))
        assert all(isinstance(cell, CorrelationCell) for _, _, cell in cells)
        for row, column, cell in cells:
            assert cell == pearson(columns[row], columns[column])

    def test_pairwise_exclusion_of_undefined(self):
        [(_, _, cell)] = correlation_matrix(
            {
                "a": [1.0, 2.0, None, 4.0, 5.0],
                "b": [2.0, 4.0, 9.0, 8.0, 10.0],
            },
            method="pearson",
        )
        assert cell.n == 4
        assert cell.r == pytest.approx(1.0, abs=1e-12)

    def test_small_or_constant_cells_flagged_not_fatal(self):
        cells = correlation_matrix(
            {"a": [1.0, None, None, 2.0], "b": [1.0, 2.0, 3.0, 4.0], "c": [5.0, 5.0, 5.0, 5.0]},
        )
        ab = cells[0][2]
        assert ab.r is None and "2 usable pairs" in ab.note
        bc = cells[2][2]
        assert cells[2][:2] == ("b", "c")
        assert bc.r is None and bc.note == "constant input"

    def test_length_mismatch_raises(self):
        with pytest.raises(StatsError):
            correlation_matrix({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})

    def test_single_column_rejected(self):
        with pytest.raises(StatsError):
            correlation_matrix({"a": [1.0, 2.0, 3.0]})

    def test_unknown_method(self):
        with pytest.raises(StatsError):
            correlation_matrix({"a": [1.0], "b": [2.0]}, method="kendall")

    def test_spearman_method_dispatch(self):
        [(_, _, cell)] = correlation_matrix(
            {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 8.0, 27.0, 64.0]},
            method="spearman",
        )
        assert cell.r == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    @settings(max_examples=300, deadline=None)
    @given(columns=_column_sets())
    # a's sums overflow unless a is scaled down first, and c spans the float range both ways
    @example(columns={"a": [1e308, 1e308, 0.5, 3.0], "b": [1.0, 2.0, 3.0, 4.0], "c": [1e308, -1e308, 1e308, 0.0]})
    # subnormal columns, and a column constant on its usable rows
    @example(columns={"a": [5e-324, 0.0, 0.0, 1e-323], "b": [0.0, -5e-324, 5e-324, 1.0], "c": [1.0, 1.0, 1.0, None]})
    # each column is prepared for two sets of excluded rows, one per pair it is in
    @example(columns={"a": [1.0, None, 3.0, 2.0, 5.0], "b": [2.0, 1.0, None, 4.0, 4.0], "c": [math.nan, 2, 1, 3, 0.5]})
    def test_equals_the_per_pair_definition(self, method, columns):
        assert correlation_matrix(columns, method) == _pairwise_definition(columns, method)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    @pytest.mark.parametrize("every_variable, calls", [(False, 4 * 7), (True, 4 * 17)], ids=["default", "all"])
    def test_each_group_prepares_each_variable_once(self, fixture_rows, monkeypatch, method, every_variable, calls):
        prepared = []
        deviations = stats._deviations

        def counted(vals):
            prepared.append(len(vals))
            return deviations(vals)

        monkeypatch.setattr(stats, "_deviations", counted)
        variables = author_table_export(fixture_rows)[0][2:] if every_variable else None
        _, data = correlation_report(fixture_rows, method=method, variables=variables)
        # the fixtures leave no cell undefined, so every pair of a group uses all of its authors
        assert len(prepared) == calls
        assert len(data) == 4 * (calls // 4) * (calls // 4 - 1) // 2


def scipy_significance(r, n):
    """The significance level computed from scipy's t distribution."""
    if abs(r) >= 1.0:
        return 99
    p = 2 * scipy.stats.t.sf(abs(r) * math.sqrt((n - 2) / (1 - r * r)), n - 2)
    return 99 if p < 0.01 else 95 if p < 0.05 else 90 if p < 0.10 else None


class TestStudentT:
    def test_p_value_matches_scipy(self):
        ts = np.concatenate([np.linspace(0.0, 5.0, 21), [6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0]])
        for df in [*range(1, 601), 1000, 2000, 5000]:
            expected = 2 * scipy.stats.t.sf(ts, df)
            for t, p in zip(ts.tolist(), expected.tolist()):
                assert abs(_t_two_tailed_p(t, df) - p) <= 1e-12, (t, df)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_significance_matches_scipy_on_fixture_cells(self, fixture_rows, method):
        checked = 0
        variables = author_table_export(fixture_rows)[0][2:]  # the profiles columns after author_id, group
        header, data = correlation_report(fixture_rows, method=method, variables=variables)
        for cell in (dict(zip(header, row)) for row in data):
            assert _significance(cell["r"], cell["n"]) == scipy_significance(cell["r"], cell["n"])
            checked += 1
        assert checked == 4 * 136  # 4 groups x every pair of the 17 variables

    def test_cli_import_loads_neither_scipy_nor_numpy(self):
        code = (
            "import sys, pirmetrics.cli; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
        )
        path = [str(Path(pirmetrics.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "[]"
