import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

import pirmetrics
from pirmetrics.report import author_table_export, correlation_report
from pirmetrics.stats import (
    BoxplotSummary,
    DescriptiveSummary,
    GroupedSample,
    StatsError,
    average_ranks,
    boxplot,
    correlation_matrix,
    describe,
    mean,
    median,
    pearson,
    quantile,
    sample_std,
    spearman,
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

    def test_quantile_bounds(self):
        with pytest.raises(StatsError):
            quantile([1.0], 1.5)


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
            len(values), median(values), mean(values), sample_std(values), lo, hi, hi - lo
        )
        # repr tells 0.0 from -0.0, which == does not
        assert repr(describe(values)) == repr(expected)

    @given(samples)
    @example([0.0, -0.0])
    @example([-0.0, 0.0, 2.5, -0.0])
    def test_boxplot_equals_its_fields(self, values):
        expected = BoxplotSummary(
            quantile(values, 0.25), median(values), quantile(values, 0.75), min(values), max(values)
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
    def test_against_scipy(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert pearson(x, y).r is None
            return
        ours = pearson(x, y)
        ref_r, ref_p = scipy.stats.pearsonr(x, y)
        if math.isnan(ref_r):
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
        names, grid = correlation_matrix(
            {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, method="pearson"
        )
        assert names == ["a", "b"]
        assert grid[0][1].r == pytest.approx(1.0)
        assert grid[0][1] is grid[1][0]
        assert grid[0][0].r == 1.0 and grid[1][1].r == 1.0

    def test_pairwise_exclusion_of_undefined(self):
        names, grid = correlation_matrix(
            {
                "a": [1.0, 2.0, None, 4.0, 5.0],
                "b": [2.0, 4.0, 9.0, 8.0, 10.0],
            },
            method="pearson",
        )
        cell = grid[0][1]
        assert cell.n == 4
        assert cell.r == pytest.approx(1.0, abs=1e-12)

    def test_small_or_constant_cells_flagged_not_fatal(self):
        names, grid = correlation_matrix(
            {"a": [1.0, None, None, 2.0], "b": [1.0, 2.0, 3.0, 4.0], "c": [5.0, 5.0, 5.0, 5.0]},
        )
        ab = grid[0][1]
        assert ab.r is None and "2 usable pairs" in ab.note
        bc = grid[1][2]
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
        names, grid = correlation_matrix(
            {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 8.0, 27.0, 64.0]},
            method="spearman",
        )
        assert grid[0][1].r == pytest.approx(1.0, abs=1e-12)


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
