"""Core domain model: windows, events, author corpora, impact tables, profiles.

Everything here is an immutable value type with no I/O and no statistics.
Instances are safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

# A journal identifier is an opaque string compared by exact equality.
# Title normalisation and aliasing belong to data preparation, not here.
JournalRef = str

# An indicator family name ("SJR", "SNIP", or any user-defined label).
# Names are case sensitive and unique within one impact table.
IndicatorName = str

SJR: IndicatorName = "SJR"
SNIP: IndicatorName = "SNIP"

# The largest count an event or a scalar counter may hold: every integer up
# to 2**53 is exactly a float, and a much larger one is no float at all.
MAX_COUNT = 2**53


class ModelError(ValueError):
    """Invalid construction of a domain value."""


@dataclass(frozen=True)
class YearWindow:
    """Inclusive range of calendar years under evaluation.

    The canonical target window is five years long, e.g. 2009..2013.
    """

    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise ModelError(
                f"window start {self.start_year} is after end {self.end_year}"
            )

    def __contains__(self, year: int) -> bool:
        """True iff start_year <= year <= end_year."""
        return self.start_year <= year <= self.end_year

    def __str__(self) -> str:
        return f"{self.start_year}:{self.end_year}"

    @classmethod
    def parse(cls, text: str) -> "YearWindow":
        """Parse 'START:END' (also accepts 'START-END')."""
        sep = ":" if ":" in text else "-"
        try:
            start, end = text.split(sep)
            return cls(int(start), int(end))
        except (ValueError, TypeError) as exc:
            if isinstance(exc, ModelError):
                raise
            raise ModelError(f"cannot parse year window from {text!r}") from exc


class EventKind(enum.Enum):
    """The three bibliographic event streams attached to an author.

    PUBLICATION counts the author's papers per journal and year,
    CITATION counts citations received from journal-year volumes, and
    REFERENCE counts cited journal-year volumes in the author's papers.
    """

    PUBLICATION = "publication"
    CITATION = "citation"
    REFERENCE = "reference"

    # members are singletons compared by identity, so the C-level identity
    # hash serves; Enum's own __hash__ is a Python function called per lookup
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "EventKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ModelError(
                f"unknown event kind {text!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


class _EventFields(NamedTuple):
    kind: EventKind
    journal: JournalRef
    year: int
    count: int


class Event(_EventFields):
    """A counted bibliographic event in one journal and year.

    A named tuple (kind, journal, year, count), checked when made: one is
    built per event row, and a tuple is the cheapest value to build and
    to unpack.
    """

    __slots__ = ()

    def __new__(cls, kind: EventKind, journal: JournalRef, year: int, count: int):
        if not journal:
            raise ModelError("journal id must be non-empty")
        if count < 1 or count > MAX_COUNT:
            raise ModelError(
                f"event count must be {'>= 1' if count < 1 else '<= 2**53'}, got {count} "
                f"({kind.value}, {journal!r}, {year})"
            )
        return tuple.__new__(cls, (kind, journal, year, count))


@dataclass(frozen=True)
class AuthorCorpus:
    """All recorded events for one author, optionally tagged with a group.

    Multiple events with the same (kind, journal, year) are allowed and
    are summed on use, so event order never matters.
    """

    author_id: str
    events: tuple[Event, ...]
    group: str | None = None

    def __post_init__(self):
        if not self.author_id:
            raise ModelError("author_id must be non-empty")
        if self.group is not None and not self.group:
            raise ModelError("group, when present, must be non-empty")
        object.__setattr__(self, "events", tuple(self.events))

    def events_of_kind(self, kind: EventKind) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def merged_counts(self, kind: EventKind) -> dict[tuple[JournalRef, int], int]:
        """Total count per (journal, year) for one kind; order independent."""
        return dict(self.merged[kind])

    @cached_property
    def merged(self) -> Mapping[EventKind, dict[tuple[JournalRef, int], int]]:
        """Each kind's {(journal, year): total count}, kinds in EventKind order.

        Made in one pass on first use and kept for every family; not to be changed.
        """
        merged: dict[EventKind, dict[tuple[JournalRef, int], int]] = {kind: {} for kind in EventKind}
        for kind, journal, year, count in self.events:
            totals = merged[kind]
            key = (journal, year)
            totals[key] = totals.get(key, 0) + count
        return merged


def merge_counts(events: Iterable[Event]) -> dict[tuple[JournalRef, int], int]:
    """Total count per (journal, year), in no meaningful order; event order does not matter."""
    totals: dict[tuple[JournalRef, int], int] = {}
    for _, journal, year, count in events:
        key = (journal, year)
        totals[key] = totals.get(key, 0) + count
    return totals


class ImpactTable:
    """Lookup of journal impact values keyed by (journal, year, indicator).

    At most one value per key; every value is finite and non-negative.
    Values are held as one {(journal, year): value} dict per indicator
    family. The table is immutable once built.
    """

    def __init__(self, entries: Iterable[tuple[JournalRef, int, IndicatorName, float]] = ()):
        families: dict[IndicatorName, dict[tuple[JournalRef, int], float]] = {}
        for journal, year, indicator, value in entries:
            self._validate(journal, indicator, value)
            year = int(year)
            values = families.setdefault(indicator, {})
            if (journal, year) in values:
                raise ModelError(f"duplicate impact entry for {(journal, year, indicator)}")
            values[journal, year] = float(value)
        self._families = families

    @classmethod
    def _of_checked(cls, families: dict[IndicatorName, dict[tuple[JournalRef, int], float]]) -> "ImpactTable":
        """A table over entries io.load_impact_table has checked row by row, not checked again."""
        table = cls.__new__(cls)
        table._families = families
        return table

    @staticmethod
    def _validate(journal, indicator, value):
        if not journal:
            raise ModelError("journal id must be non-empty")
        if not indicator:
            raise ModelError("indicator name must be non-empty")
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ModelError(
                f"impact value must be finite and non-negative, got {value} for "
                f"({journal!r}, {indicator!r})"
            )

    def get(self, journal: JournalRef, year: int, indicator: IndicatorName) -> float | None:
        return self.family(indicator).get((journal, year))

    def family(self, indicator: IndicatorName) -> Mapping[tuple[JournalRef, int], float]:
        """One family's {(journal, year): value} dict, empty for an unknown family; not to be changed."""
        return self._families.get(indicator, {})

    @cached_property
    def year_spans(self) -> dict[IndicatorName, tuple[int, int]]:
        """Each family's first and last year, worked out on first use; not to be changed."""
        years = {indicator: set(map(itemgetter(1), values)) for indicator, values in self._families.items()}
        return {indicator: (min(ys), max(ys)) for indicator, ys in years.items() if ys}

    def __len__(self) -> int:
        return sum(map(len, self._families.values()))

    def entries(self) -> Iterator[tuple[JournalRef, int, IndicatorName, float]]:
        for indicator, values in self._families.items():
            for (journal, year), value in values.items():
                yield journal, year, indicator, value

    def indicators(self) -> set[IndicatorName]:
        return set(self._families)

    def scaled(self, factor: float) -> "ImpactTable":
        """New table with every value multiplied by a positive factor."""
        if factor <= 0:
            raise ModelError(f"scale factor must be positive, got {factor}")
        return ImpactTable(
            (j, y, ind, v * factor) for j, y, ind, v in self.entries()
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ImpactTable) and self._families == other._families

    def __repr__(self) -> str:
        return f"ImpactTable({len(self)} entries)"


@dataclass(frozen=True)
class CoverageDiagnostics:
    """How much of one event stream was usable in a weighted mean.

    total_count counts events eligible under the window policy,
    matched_count those with an impact value found, dropped_count those
    skipped under the missing-value policy. matched + dropped == total.
    """

    total_count: int = 0
    matched_count: int = 0
    dropped_count: int = 0

    def __post_init__(self):
        if min(self.total_count, self.matched_count, self.dropped_count) < 0:
            raise ModelError("coverage counts must be non-negative")
        if self.matched_count + self.dropped_count != self.total_count:
            raise ModelError(
                f"coverage counts inconsistent: {self.matched_count} matched "
                f"+ {self.dropped_count} dropped != {self.total_count} total"
            )


def derive_ratios(
    p: float | None, i: float | None, r: float | None
) -> tuple[float | None, float | None, float | None, float | None]:
    """The four normalisation ratios (P/I, P/R, I/R, (P+I)/2R) of a profile.

    A ratio is None exactly when its numerator is undefined or its
    denominator is undefined or zero. Recomputing from stored dimensions
    reproduces stored ratios bit for bit.
    """
    p_over_i = p / i if p is not None and i is not None and i > 0 else None
    p_over_r = p / r if p is not None and r is not None and r > 0 else None
    i_over_r = i / r if i is not None and r is not None and r > 0 else None
    pi_over_2r = (
        (p + i) / (2.0 * r)
        if p is not None and i is not None and r is not None and r > 0
        else None
    )
    return p_over_i, p_over_r, i_over_r, pi_over_2r


@dataclass(frozen=True)
class IndicatorProfile:
    """Per-author dimensions and ratios for one indicator family.

    p, i and r are weighted mean impacts of the publication, citation and
    reference streams; None marks a dimension with no matched events.
    """

    author_id: str
    indicator: IndicatorName
    window: YearWindow
    p: float | None
    i: float | None
    r: float | None
    p_over_i: float | None
    p_over_r: float | None
    i_over_r: float | None
    pi_over_2r: float | None
    coverage: Mapping[EventKind, CoverageDiagnostics] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("p", "i", "r"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ModelError(f"dimension {name} must be non-negative, got {v}")
        object.__setattr__(self, "coverage", dict(self.coverage))
