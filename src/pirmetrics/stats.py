"""Descriptive statistics, variance decomposition and correlation.

Small-sample machinery for grouped author indicators. All reductions use
compensated summation (math.fsum) so results are independent of how the
input happens to be batched or ordered. The result types are named
tuples, so each unpacks into its report columns in field order.

Pearson's r is split into a per-vector half (_deviations) and a per-pair
half (_correlate), so correlation_matrix prepares each column once per
group and set of excluded rows, not once for every pair it is in.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping, Sequence
from itertools import combinations, groupby
from typing import NamedTuple


class StatsError(ValueError):
    """Invalid input to a statistics operation."""


class DescriptiveSummary(NamedTuple):
    """Central tendency and variability of one sample.

    sample_std uses the n-1 divisor; a singleton sample has std 0 by
    convention. value_range is max - min.
    """

    n: int
    median: float
    mean: float
    sample_std: float
    min: float
    max: float
    value_range: float


class BoxplotSummary(NamedTuple):
    """Quartiles plus whiskers at the sample minimum and maximum."""

    q1: float
    q2: float
    q3: float
    whisker_low: float
    whisker_high: float


class VarianceDecomposition(NamedTuple):
    """Partition of total variability into within- and between-group parts.

    All three terms are sums of squared deviations, so
    within_ss + between_ss == total_ss. pct_reduction is
    1 - between_ss / within_ss, undefined (None) when within_ss is 0.
    """

    within_ss: float
    between_ss: float
    total_ss: float
    pct_reduction: float | None


class CorrelationCell(NamedTuple):
    """One correlation coefficient with its sample size and significance.

    significance is the confidence level (90, 95 or 99) at which r is
    distinguishable from zero under a two-tailed t test, or None. r is
    None when the coefficient is undefined (constant input or n < 3);
    the note then says why.
    """

    r: float | None
    n: int
    significance: int | None = None
    note: str | None = None


class GroupedSample:
    """Named groups of numeric values, in insertion order.

    Every group must be non-empty; group names are unique. Undefined
    values are expected to have been excluded before construction.
    """

    def __init__(self, groups: Mapping[str, Sequence[float]]):
        cleaned: dict[str, tuple[float, ...]] = {}
        for name, values in groups.items():
            vals = tuple(map(float, values))
            if not vals:
                raise StatsError(f"group {name!r} is empty")
            cleaned[name] = vals
        if not cleaned:
            raise StatsError("at least one group required")
        self._groups = cleaned

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups.items())

    def pooled(self) -> list[float]:
        return [v for vals in self._groups.values() for v in vals]


def _check_sample(values: Sequence[float]) -> list[float]:
    vals = list(map(float, values))
    if not vals:
        raise StatsError("empty sample")
    if not all(map(math.isfinite, vals)):
        raise StatsError("sample contains non-finite values")
    return vals


def _finite(statistic):
    """The statistic, raising StatsError where a result would overflow the float range.

    It only adds the check: every finite result keeps its bits.
    """

    @functools.wraps(statistic)
    def checked(*args):
        try:
            result = statistic(*args)
            if all(v is None or math.isfinite(v) for v in result):
                return result
        except OverflowError:
            pass
        raise StatsError(f"{statistic.__name__.replace('_', ' ')} overflows the float range")

    return checked


# The public functions check their input once, on entry, through
# _check_sample; the private helpers below take a checked sample.

def _mean(vals: list[float]) -> float:
    return math.fsum(vals) / len(vals)


def _median(ordered: list[float]) -> float:
    """Middle order statistic; mean of the two middle values for even n."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _sample_std(vals: list[float]) -> float:
    if len(vals) == 1:
        return 0.0
    m = _mean(vals)
    return math.sqrt(math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1))


def _quantile(ordered: list[float], q: float) -> float:
    """Order statistic at fractional position 1 + (n-1)*q, interpolated, for q in [0, 1].

    This single definition backs every quartile in the package; change it
    here to switch conventions.
    """
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    a, b = ordered[lo], ordered[hi]
    frac = pos - lo
    # a + (b - a) * f, unlike a * (1 - f) + b * f, is a when a == b and stays
    # in [a, b]; only b - a beyond the float range needs the second form
    value = a + (b - a) * frac
    return value if math.isfinite(value) else a * (1.0 - frac) + b * frac


@_finite
def describe(values: Sequence[float]) -> DescriptiveSummary:
    """Median, mean, sample std, min, max and range of a non-empty sample."""
    vals = _check_sample(values)
    # min and max scan the sample in its own order, as the first of equal
    # 0.0 and -0.0 is the one they return
    lo, hi = min(vals), max(vals)
    return DescriptiveSummary(
        n=len(vals),
        median=_median(sorted(vals)),
        mean=_mean(vals),
        sample_std=_sample_std(vals),
        min=lo,
        max=hi,
        value_range=hi - lo,
    )


@_finite
def boxplot(values: Sequence[float]) -> BoxplotSummary:
    """Quartile summary with whiskers at the sample extremes."""
    vals = _check_sample(values)
    ordered = sorted(vals)
    return BoxplotSummary(
        q1=_quantile(ordered, 0.25),
        q2=_median(ordered),
        q3=_quantile(ordered, 0.75),
        whisker_low=min(vals),
        whisker_high=max(vals),
    )


@_finite
def variance_decomposition(sample: GroupedSample) -> VarianceDecomposition:
    """Split total sum of squares into within- and between-group parts.

    within_ss sums squared deviations from each group mean, between_ss
    weights squared group-mean offsets from the grand mean by group size,
    and total_ss sums squared deviations from the grand mean; the three
    satisfy within + between == total up to rounding.
    """
    if len(sample) < 2:
        raise StatsError("variance decomposition needs at least two groups")
    pooled = _check_sample(sample.pooled())
    grand = _mean(pooled)
    means = [(vals, _mean(vals)) for _, vals in sample]
    within = math.fsum(math.fsum((v - m) ** 2 for v in vals) for vals, m in means)
    between = math.fsum(len(vals) * (m - grand) ** 2 for vals, m in means)
    total = math.fsum((v - grand) ** 2 for v in pooled)
    pct = 1.0 - between / within if within > 0 else None
    return VarianceDecomposition(
        within_ss=within, between_ss=between, total_ss=total, pct_reduction=pct
    )


def _t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with integer df >= 1, t >= 0.

    Exact finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)); df // 2 terms.
    """
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term, terms = (math.cos(theta) if odd else 1.0), []
    for k in range(1, df // 2 + 1):
        terms.append(term)
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    inside = math.sin(theta) * math.fsum(terms)
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return 1.0 - inside


def _significance(r: float, n: int) -> int | None:
    """Confidence level of r != 0 from the two-tailed t statistic."""
    if abs(r) >= 1.0:
        return 99
    stat = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    p = _t_two_tailed_p(stat, n - 2)
    if p < 0.01:
        return 99
    if p < 0.05:
        return 95
    if p < 0.10:
        return 90
    return None


def _deviations(vals: list[float]) -> tuple[list[float], float] | None:
    """The vector's half of Pearson's r: its unit-scaled deviations and their sum of squares.

    None for a constant vector. Every step here depends on this vector
    alone, so correlation_matrix prepares a column once for all of its
    pairs; vals is a checked sample of at least 3 values.
    """
    # constancy is decided on the raw values; the mean of a constant
    # vector can round to a nearby float, leaving spurious deviations
    if vals.count(vals[0]) == len(vals):
        return None
    # a vector is scaled by a power of two, which leaves r as it is: one whose largest magnitude is under 1/2
    # up to at least 1/2, as a tiny vector's mean and deviations would otherwise round to the subnormal grid,
    # and one whose n-fold sum could near the float maximum down, as its sums would otherwise overflow: below
    # 2**(1021 - n.bit_length()) each, n values sum to under 2**1021 and their deviations' sum to under 2**1022
    top = math.frexp(max(map(abs, vals)))[1]
    k = -top if top < 0 else min(0, 1021 - top - len(vals).bit_length())
    if k:
        vals = [math.ldexp(v, k) for v in vals]
    m = _mean(vals)
    dev = [v - m for v in vals]
    # the float mean can be an ulp off: take out the deviations' own mean too (corrected two-pass mean)
    c = math.fsum(dev) / len(dev)
    dev = [v - c for v in dev]
    # scale deviations to unit magnitude so squaring cannot under/overflow. The scale is never 0: the
    # rounded mean is off the exact one by rounding only, so a non-constant vector keeps two distinct
    # deviations, one of which differs from c, and a float difference is 0 only between equal floats
    scale = max(map(abs, dev))
    dev = [v / scale for v in dev]
    return dev, math.fsum(map(operator.mul, dev, dev))


def _correlate(
    x: tuple[list[float], float] | None, y: tuple[list[float], float] | None, n: int
) -> CorrelationCell:
    """The pair's half of Pearson's r, from both vectors' _deviations."""
    if x is None or y is None:
        return CorrelationCell(r=None, n=n, note="constant input")
    (dx, sxx), (dy, syy) = x, y
    r = math.fsum(map(operator.mul, dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return CorrelationCell(r=r, n=n, significance=_significance(r, n))


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationCell:
    """Pearson product-moment correlation with t-test significance.

    Requires equal lengths, n >= 3; a constant vector yields an undefined
    cell (r None, with a note) rather than a silent zero.
    """
    xs, ys = _check_sample(x), _check_sample(y)
    if len(xs) != len(ys):
        raise StatsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise StatsError(f"need at least 3 pairs, got {n}")
    return _correlate(_deviations(xs), _deviations(ys), n)


def average_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks 1..n with ties sharing their average rank."""
    vals = _check_sample(values)
    ranks = [0.0] * len(vals)
    start = 0
    for _, run in groupby(sorted(range(len(vals)), key=vals.__getitem__), key=vals.__getitem__):
        run = list(run)
        shared = (2 * start + len(run) + 1) / 2.0  # the mean of ranks start + 1 .. start + len(run)
        for k in run:
            ranks[k] = shared
        start += len(run)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationCell:
    """Rank correlation: Pearson applied to average-rank vectors."""
    return pearson(average_ranks(x), average_ranks(y))


_METHODS = ("pearson", "spearman")


def correlation_matrix(
    columns: Mapping[str, Sequence[float]], method: str = "pearson"
) -> list[tuple[str, str, CorrelationCell]]:
    """The correlation cells above the diagonal: (row, column, cell) for each pair of named columns.

    The pairs come in row-major order, as combinations(columns, 2) gives
    them, which is the order of correlation_report's rows; no diagonal or
    mirrored cell is built. The name is the one the benchmark traces, as
    stats.correlation_matrix_s.

    Pairs with undefined values (None or NaN in either column) are
    excluded pairwise; each cell's n reports the pairs actually used.
    Statistically undefined cells (constant column, fewer than 3 usable
    pairs) are flagged per cell instead of raising. Each cell equals
    pearson or spearman on its usable pairs, but a column, or its ranks
    under spearman, is prepared once per call (one group) and set of rows
    its pairs leave out, not once for every pair.
    """
    if method not in _METHODS:
        raise StatsError(f"unknown method {method!r}; expected one of {list(_METHODS)}")
    names = list(columns)
    if len(names) < 2:
        raise StatsError("need at least two columns")
    length = len(columns[names[0]])
    for name in names:
        if len(columns[name]) != length:
            raise StatsError(
                f"column {name!r} has length {len(columns[name])}, expected {length}"
            )
    # each cell is found usable or not once, here; a column's holes are the rows of its unusable cells
    usable = {name: [float(v) if v is not None and math.isfinite(v) else None for v in columns[name]] for name in names}
    holes = {name: frozenset(i for i, v in enumerate(vals) if v is None) for name, vals in usable.items()}
    prepared = {}  # (column, rows left out) -> the column's _deviations on the other rows
    cells = []
    for a, b in combinations(names, 2):
        left_out = holes[a] | holes[b]
        n = length - len(left_out)
        if n < 3:
            cell = CorrelationCell(r=None, n=n, note=f"only {n} usable pairs")
        else:
            for name in (a, b):
                if (name, left_out) not in prepared:
                    vals = [v for i, v in enumerate(usable[name]) if i not in left_out]
                    prepared[name, left_out] = _deviations(average_ranks(vals) if method == "spearman" else vals)
            cell = _correlate(prepared[a, left_out], prepared[b, left_out], n)
        cells.append((a, b, cell))
    return cells
