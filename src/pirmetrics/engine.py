"""Weighted mean impact dimensions and their normalisation ratios.

Each dimension of an author's citation potential is a weighted average of
journal impact values over one event stream: for the production dimension

    P = sum over matched (journal, year) of  count/T * impact(journal, year)

where T is the total matched count, so the weights always sum to one. The
impact value is looked up for the event's own year. The impact and
reference dimensions use the same form over the citation and reference
streams, and the four ratios P/I, P/R, I/R and (P+I)/2R are derived from
the dimensions.

A batch works out its family's lookups once: compute_profiles builds one
_FamilyContext (the value dict, the window bounds, the window policy) and
every stream of every author reads from it. The context also holds the
batch's gap memo, whose fill is the missing-value policy: drop or
nearest:K fills each absent (journal, year) once per batch, however many
streams lack it, and strict has no fill, so a gap raises.
compute_profile and weighted_mean_impact build a context for their one
author or stream.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .model import (
    FAMILY_FIELDS,
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    FrozenValue,
    ImpactTable,
    IndicatorName,
    IndicatorProfile,
    JournalRef,
    YearWindow,
    _decimal,
    _Memo,
    derive_ratios,
    merge_counts,
    variable_name,
)


class EngineError(ValueError):
    """Invalid input to a dimension computation."""


class MissingImpactError(EngineError):
    """Raised under the strict policy when an impact value is absent."""

    def __init__(self, journal: JournalRef, year: int, indicator: IndicatorName):
        self.journal = journal
        self.year = year
        self.indicator = indicator
        super().__init__(
            f"no {indicator} impact value for journal {journal!r} in year {year}"
        )


class BatchError(EngineError):
    """One or more authors failed in a batch computation.

    Successful profiles are kept on the exception so a caller can decide
    whether partial output is acceptable.
    """

    def __init__(self, failures: list[tuple[str, Exception]], profiles: list[IndicatorProfile]):
        self.failures = failures
        self.profiles = profiles
        detail = "; ".join(f"{author_id}: {exc}" for author_id, exc in failures)
        super().__init__(f"{len(failures)} author(s) failed: {detail}")


class MissingValuePolicy(FrozenValue, namedtuple("MissingValuePolicy", "mode max_distance")):
    """What to do when an event's (journal, year) has no impact value.

    strict   -> raise MissingImpactError naming the stream's smallest
                missing (journal, year)
    drop     -> skip the event and renormalise weights over matched counts
    nearest  -> use the same journal's nearest year within max_distance
                (ties resolved toward the earlier year), else drop
    """

    __slots__ = ()

    STRICT = "strict"
    DROP = "drop"
    NEAREST = "nearest"

    def __new__(cls, mode: str, max_distance: int = 0):
        if mode not in (cls.STRICT, cls.DROP, cls.NEAREST):
            raise EngineError(f"unknown missing-value mode {mode!r}")
        if max_distance < 0:
            raise EngineError("max_distance must be non-negative")
        return tuple.__new__(cls, (mode, max_distance))

    @classmethod
    def parse(cls, text: str) -> "MissingValuePolicy":
        """Parse 'strict', 'drop' or 'nearest:K'."""
        text = text.strip().lower()
        if text in (cls.STRICT, cls.DROP):
            return cls(text)
        mode, _, dist = text.partition(":")
        if mode == cls.NEAREST:
            try:
                if not _decimal(dist):
                    raise ValueError
                return cls(cls.NEAREST, int(dist))
            except ValueError:
                raise EngineError(
                    f"bad nearest-year distance in {text!r}; expected nearest:K"
                ) from None
        raise EngineError(f"unknown missing-value policy {text!r}")


class WindowPolicy(enum.Enum):
    """Which event years may contribute to a dimension.

    STRICT restricts all three event streams to the target window.
    OPEN_REFERENCES lets citation and reference events outside the window
    contribute too, still valued at their own year; publications always
    stay inside the window.
    """

    STRICT = "strict"
    OPEN_REFERENCES = "open-references"

    @classmethod
    def parse(cls, text: str) -> "WindowPolicy":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise EngineError(
                f"unknown window policy {text!r}; expected one of "
                f"{[p.value for p in cls]}"
            ) from None


DEFAULT_MISSING = MissingValuePolicy(MissingValuePolicy.DROP)
DEFAULT_WINDOW_POLICY = WindowPolicy.STRICT


def _missing_value(
    key: tuple[JournalRef, int], values: Mapping[tuple[JournalRef, int], float],
    missing: MissingValuePolicy, span: tuple[int, int] | None,
) -> float | None:
    """What stands in for the absent impact value of key, (journal, year), under the drop or nearest policy.

    span is the family's (first, last) year, None if it has no values; as no
    year outside holds one, nearest:K starts where the nearer end of the span
    comes into reach and stops once both candidates are past the farther end.
    """
    journal, year = key
    if missing.mode == MissingValuePolicy.NEAREST and span:
        first, last = span
        reach = min(max(year - first, last - year), missing.max_distance)
        for distance in range(max(1, year - last, first - year), reach + 1):
            for candidate in (year - distance, year + distance):
                value = values.get((journal, candidate))
                if value is not None:
                    return value
    return None


class _FamilyContext:
    """One family's lookups under one window and pair of policies, read by every stream of a batch.

    gaps is the batch's memo of what fills each gap, {(journal, year): value
    or None}, None for a drop. Under drop and nearest it is a _Memo whose
    fill is _missing_value, run once per (journal, year) a stream lacks,
    however many streams lack it. Under strict it is a plain dict that
    stays empty, so looking a gap up raises KeyError. A context lives for
    one call, so two tables, families or policies never share a memo.
    """

    __slots__ = ("indicator", "window", "values", "get", "lo", "hi", "open_kinds", "gaps")

    def __init__(
        self, table: ImpactTable, indicator: IndicatorName, window: YearWindow,
        missing: MissingValuePolicy, window_policy: WindowPolicy,
    ):
        self.indicator, self.window = indicator, window
        self.values = table.family(indicator)
        self.get = self.values.get
        self.lo, self.hi = window.start_year, window.end_year
        # the kinds whose events count outside the window; publications never do
        open_references = window_policy == WindowPolicy.OPEN_REFERENCES
        self.open_kinds = (EventKind.CITATION, EventKind.REFERENCE) if open_references else ()
        span = table.year_spans.get(indicator) if missing.mode == MissingValuePolicy.NEAREST else None
        self.gaps = {} if missing.mode == MissingValuePolicy.STRICT else _Memo(_missing_value, self.values, missing, span)


def _weighted_mean(
    merged: Mapping[tuple[JournalRef, int], int], kind: EventKind | None, context: _FamilyContext,
) -> tuple[float | None, CoverageDiagnostics]:
    """The one loop behind weighted_mean_impact and compute_profile, over one kind's merge_counts totals.

    Each merged (journal, year) key is looked up as it is in the family's
    value dict, and a key it lacks in the batch's gap memo. The keys come
    in no set order: math.fsum makes the sum independent of the order of
    its terms, and under strict the first gap met raises for the smallest
    eligible (journal, year) the family lacks.
    """
    open_years = kind in context.open_kinds
    lo, hi, get, gaps = context.lo, context.hi, context.get, context.gaps
    matched_terms: list[float] = []
    matched = 0
    dropped = 0
    try:
        for key, count in merged.items():
            if not (open_years or lo <= key[1] <= hi):
                continue
            value = get(key)
            if value is None:
                value = gaps[key]
            if value is None:
                dropped += count
            else:
                matched += count
                matched_terms.append(count * value)
    except KeyError:  # only strict's plain dict raises it: drop's and nearest's fill calls nothing but dict.get
        absent = (k for k in merged if (open_years or lo <= k[1] <= hi) and k not in context.values)
        raise MissingImpactError(*min(absent), context.indicator) from None

    # matched + dropped is the total and no count is negative, as CoverageDiagnostics() would check
    total = matched + dropped
    if matched == 0:
        return None, CoverageDiagnostics._of_checked((total, 0, total))
    try:
        mean = math.fsum(matched_terms) / matched
    except OverflowError:  # the terms are non-negative, so the sum overflows
        mean = math.inf
    return mean, CoverageDiagnostics._of_checked((total, matched, dropped))


def weighted_mean_impact(
    events: Iterable[Event],
    table: ImpactTable,
    indicator: IndicatorName,
    window: YearWindow,
    missing: MissingValuePolicy = DEFAULT_MISSING,
    window_policy: WindowPolicy = DEFAULT_WINDOW_POLICY,
) -> tuple[float | None, CoverageDiagnostics]:
    """Weighted mean impact of one event stream, with coverage diagnostics.

    All events must share one kind. Returns (None, zeroed diagnostics)
    when nothing is eligible or nothing matches; that is not an error.
    Counts for the same (journal, year) are merged first, and terms are
    accumulated with compensated summation, so the result does not depend
    on event order.
    """
    events = list(events)
    kinds = {e.kind for e in events}
    if len(kinds) > 1:
        raise EngineError(f"events must share one kind, got {sorted(k.value for k in kinds)}")
    kind = next(iter(kinds)) if kinds else None
    merged = merge_counts(events)[kind] if kinds else {}
    return _weighted_mean(merged, kind, _FamilyContext(table, indicator, window, missing, window_policy))


def compute_profile(
    corpus: AuthorCorpus,
    table: ImpactTable,
    indicator: IndicatorName,
    window: YearWindow,
    missing: MissingValuePolicy = DEFAULT_MISSING,
    window_policy: WindowPolicy = DEFAULT_WINDOW_POLICY,
) -> IndicatorProfile:
    """All three dimensions and four ratios for one author.

    Zero or undefined denominators never raise; the affected ratios are
    simply undefined. A dimension or ratio that overflows to infinity
    raises EngineError naming its cell, and strict missing-impact errors
    propagate. The corpus's merged counts are reused across indicator
    families.
    """
    return _profile(corpus, _FamilyContext(table, indicator, window, missing, window_policy))


def _profile(corpus: AuthorCorpus, context: _FamilyContext) -> IndicatorProfile:
    """compute_profile of one author, with the lookups of the batch the author is in."""
    dims: dict[EventKind, float | None] = {}
    coverage: dict[EventKind, CoverageDiagnostics] = {}
    for kind, merged in corpus.merged.items():
        dims[kind], coverage[kind] = _weighted_mean(merged, kind, context)

    p = dims[EventKind.PUBLICATION]
    i = dims[EventKind.CITATION]
    r = dims[EventKind.REFERENCE]
    cells = (p, i, r, *derive_ratios(p, i, r))  # in FAMILY_FIELDS order, as IndicatorProfile takes them
    for name, value in zip(FAMILY_FIELDS, cells):
        if value is not None and not math.isfinite(value):
            indicator = context.indicator
            raise EngineError(f"{indicator} cell {variable_name(name, indicator)} is not finite ({value})")
    # p, i and r are means of non-negative terms, as IndicatorProfile() checks, and coverage is this profile's own
    return IndicatorProfile._of_checked((corpus.author_id, context.indicator, context.window, *cells, coverage))


def compute_profiles(
    corpora: Sequence[AuthorCorpus],
    table: ImpactTable,
    indicator: IndicatorName,
    window: YearWindow,
    missing: MissingValuePolicy = DEFAULT_MISSING,
    window_policy: WindowPolicy = DEFAULT_WINDOW_POLICY,
    fail_fast: bool = False,
) -> list[IndicatorProfile]:
    """Profiles for a batch of authors, ordered by author_id.

    Author ids must be unique. Without fail_fast every author is
    attempted and failures are aggregated into one BatchError carrying
    the successful profiles; with fail_fast the first failure aborts.
    """
    seen: set[str] = set()
    for corpus in corpora:
        if corpus.author_id in seen:
            raise EngineError(f"duplicate author_id {corpus.author_id!r} in batch")
        seen.add(corpus.author_id)

    context = _FamilyContext(table, indicator, window, missing, window_policy)
    profiles: list[IndicatorProfile] = []
    failures: list[tuple[str, Exception]] = []
    for corpus in sorted(corpora, key=lambda c: c.author_id):
        try:
            profiles.append(_profile(corpus, context))
        except EngineError as exc:
            if fail_fast:
                raise EngineError(f"author {corpus.author_id!r}: {exc}") from exc
            failures.append((corpus.author_id, exc))
    if failures:
        raise BatchError(failures, profiles)
    return profiles
