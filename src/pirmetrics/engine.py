"""Weighted mean impact dimensions and their normalisation ratios.

Each dimension of an author's citation potential is a weighted average of
journal impact values over one event stream: for the production dimension

    P = sum over matched (journal, year) of  count/T * impact(journal, year)

where T is the total matched count, so the weights always sum to one. The
impact value is looked up for the event's own year. The impact and
reference dimensions use the same form over the citation and reference
streams, and the four ratios P/I, P/R, I/R and (P+I)/2R are derived from
the dimensions.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .model import (
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    ImpactTable,
    IndicatorName,
    IndicatorProfile,
    JournalRef,
    YearWindow,
    derive_ratios,
    merge_counts,
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


@dataclass(frozen=True)
class MissingValuePolicy:
    """What to do when an event's (journal, year) has no impact value.

    strict   -> raise MissingImpactError naming the stream's smallest
                missing (journal, year)
    drop     -> skip the event and renormalise weights over matched counts
    nearest  -> use the same journal's nearest year within max_distance
                (ties resolved toward the earlier year), else drop
    """

    mode: str
    max_distance: int = 0

    STRICT = "strict"
    DROP = "drop"
    NEAREST = "nearest"

    def __post_init__(self):
        if self.mode not in (self.STRICT, self.DROP, self.NEAREST):
            raise EngineError(f"unknown missing-value mode {self.mode!r}")
        if self.max_distance < 0:
            raise EngineError("max_distance must be non-negative")

    @classmethod
    def strict(cls) -> "MissingValuePolicy":
        return cls(cls.STRICT)

    @classmethod
    def nearest_year(cls, max_distance: int) -> "MissingValuePolicy":
        return cls(cls.NEAREST, max_distance)

    @classmethod
    def parse(cls, text: str) -> "MissingValuePolicy":
        """Parse 'strict', 'drop' or 'nearest:K'."""
        text = text.strip().lower()
        if text == cls.STRICT:
            return cls.strict()
        if text == cls.DROP:
            return cls(cls.DROP)
        mode, _, dist = text.partition(":")
        if mode == cls.NEAREST:
            try:
                return cls.nearest_year(int(dist))
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
    values: Mapping[tuple[JournalRef, int], float], journal: JournalRef, year: int,
    missing: MissingValuePolicy, span: tuple[int, int] | None,
) -> float | None:
    """What stands in for an absent impact value under the drop or nearest policy.

    span is the family's (first, last) year, None if it has no values; as no
    year outside holds one, nearest:K stops once both candidates are outside it.
    """
    if missing.mode == MissingValuePolicy.NEAREST and span:
        first, last = span
        # the distance to the farther end, capped at K, without min() and max(): they cost more per gap
        reach = year - first if year - first > last - year else last - year
        if reach > missing.max_distance:
            reach = missing.max_distance
        for distance in range(1, reach + 1):
            for candidate in (year - distance, year + distance):
                value = values.get((journal, candidate))
                if value is not None:
                    return value
    return None


def _weighted_mean(
    merged: Mapping[tuple[JournalRef, int], int], kind: EventKind | None, table: ImpactTable,
    indicator: IndicatorName, window: YearWindow, missing: MissingValuePolicy, window_policy: WindowPolicy,
) -> tuple[float | None, CoverageDiagnostics]:
    """The one loop behind weighted_mean_impact and compute_profile, over merge_counts totals.

    Each merged (journal, year) key is looked up as it is in the family's
    value dict. The keys come in no set order: math.fsum makes the sum
    independent of the order of its terms, and under strict the first gap
    met raises for the smallest eligible (journal, year) the family lacks.
    """
    open_years = window_policy == WindowPolicy.OPEN_REFERENCES and kind not in (None, EventKind.PUBLICATION)
    lo, hi = window.start_year, window.end_year
    values = table.family(indicator)
    get = values.get
    span = table.year_spans.get(indicator) if missing.mode == MissingValuePolicy.NEAREST else None
    matched_terms: list[float] = []
    matched = 0
    dropped = 0
    for key, count in merged.items():
        if not (open_years or lo <= key[1] <= hi):
            continue
        value = get(key)
        if value is None:
            if missing.mode == MissingValuePolicy.STRICT:
                gaps = (k for k in merged if (open_years or lo <= k[1] <= hi) and k not in values)
                raise MissingImpactError(*min(gaps), indicator)
            value = _missing_value(values, *key, missing, span)
        if value is None:
            dropped += count
        else:
            matched += count
            matched_terms.append(count * value)

    total = matched + dropped
    if matched == 0:
        return None, CoverageDiagnostics(total, 0, total)
    try:
        mean = math.fsum(matched_terms) / matched
    except OverflowError:  # the terms are non-negative, so the sum overflows
        mean = math.inf
    return mean, CoverageDiagnostics(total, matched, dropped)


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
    return _weighted_mean(merge_counts(events), kind, table, indicator, window, missing, window_policy)


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
    dims: dict[EventKind, float | None] = {}
    coverage: dict[EventKind, CoverageDiagnostics] = {}
    for kind, merged in corpus.merged.items():
        dims[kind], coverage[kind] = _weighted_mean(merged, kind, table, indicator, window, missing, window_policy)

    p = dims[EventKind.PUBLICATION]
    i = dims[EventKind.CITATION]
    r = dims[EventKind.REFERENCE]
    p_over_i, p_over_r, i_over_r, pi_over_2r = derive_ratios(p, i, r)
    cells = (p, i, r, p_over_i, p_over_r, i_over_r, pi_over_2r)
    for name, value in zip(("p", "i", "r", "pi", "pr", "ir", "pi2r"), cells):
        if value is not None and not math.isfinite(value):
            raise EngineError(f"{indicator} cell {name}_{indicator.lower()} is not finite ({value})")
    return IndicatorProfile(
        author_id=corpus.author_id,
        indicator=indicator,
        window=window,
        p=p,
        i=i,
        r=r,
        p_over_i=p_over_i,
        p_over_r=p_over_r,
        i_over_r=i_over_r,
        pi_over_2r=pi_over_2r,
        coverage=coverage,
    )


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

    profiles: list[IndicatorProfile] = []
    failures: list[tuple[str, Exception]] = []
    for corpus in sorted(corpora, key=lambda c: c.author_id):
        try:
            profiles.append(
                compute_profile(corpus, table, indicator, window, missing, window_policy)
            )
        except EngineError as exc:
            if fail_fast:
                raise EngineError(f"author {corpus.author_id!r}: {exc}") from exc
            failures.append((corpus.author_id, exc))
    if failures:
        raise BatchError(failures, profiles)
    return profiles
