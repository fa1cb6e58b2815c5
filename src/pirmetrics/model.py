"""Core domain model: windows, events, author corpora, impact tables, profiles.

Every public type here is an immutable value type with no I/O and no
statistics, and its instances are safe to share across threads. Two
private helpers are shared with io and engine: _decimal, the one digit
rule, and _Memo, the one memo: a mutable dict that lives for one call.

The value types that check their fields when built (Event, YearWindow,
AuthorCorpus, CoverageDiagnostics, IndicatorProfile, and
engine.MissingValuePolicy and io.ScalarMetrics) are all named tuples,
declared one way: each subclasses a collections.namedtuple of its fields
and checks them in a __new__ that ends in tuple.__new__(cls, (...)). All
but Event also subclass FrozenValue, which keeps the two rules in which
they differ from a tuple: a value equals only a value of its own class,
and no attribute can be set or deleted. Event is a plain tuple of its
fields and equals one. namedtuple gives the fields, repr, hash and
pickling; pickle and copy rebuild a value through the checking __new__.
_replace and _make skip the checks, as _of_checked does. The types are
not dataclasses: every command is a new process, and importing
dataclasses and building each class through it, which compiles its
methods with exec, made up several milliseconds of every start.

Building through the class checks every field. Trusted constructors
build the same value without the checks, for values whose fields hold by
construction; every check and its message stay here. They take two
forms: a named tuple's _of_checked is classmethod(tuple.__new__), called
with one tuple of the fields, so no Python frame runs per value, and
ImpactTable's takes the families it holds:
    FrozenValue._of_checked  the engine's CoverageDiagnostics and
                             IndicatorProfile, from counts and means it
                             has made itself
    Event._of_checked        io.load_events' Event of a row whose journal
                             is non-empty and whose count is in
                             1..MAX_COUNT; any other row goes through
                             Event, which words the error
    ImpactTable._of_checked  io.load_impact_table's table, from rows it
                             has checked one by one
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

# The package version, pirmetrics.__version__. It lives here, not in the package's
# __init__, because each module imports only its sibling modules.
__version__ = "0.1.0"

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


def _decimal(text: str) -> bool:
    """Whether numeric text is ASCII with no '_': int() and float() also read '_' separators and other digits.

    The one digit rule: the loaders in io apply it to file fields, and
    YearWindow.parse and engine.MissingValuePolicy.parse to flag and
    config values.
    """
    return text.isascii() and "_" not in text


class _Memo(dict):
    """A dict that fills a key it lacks with fill(key, *args), stored on first sight.

    The one memo: io's loaders keep one per field, raw text -> parsed value,
    and engine's gap memo fills each absent (journal, year) under the
    missing-value policy. A fill that raises stores nothing.
    """

    __slots__ = ("fill", "args")

    def __init__(self, fill, *args):
        self.fill, self.args = fill, args

    def __missing__(self, key):
        value = self[key] = self.fill(key, *self.args)
        return value


class ModelError(ValueError):
    """Invalid construction of a domain value."""


class FrozenValue:
    """Base of a checked named tuple: the two rules in which it differs from a tuple.

    A value equals only a value of its own class with equal fields, so it
    never equals a plain tuple of its fields; and assigning or deleting an
    attribute raises AttributeError. Each subclass also subclasses a
    collections.namedtuple, which gives it its fields, repr, hash and
    pickling, and checks its fields in a __new__ that ends in
    tuple.__new__(cls, (...)).
    """

    __slots__ = ()

    # cls._of_checked((field, ...)): the value of fields the caller has already checked, in _fields
    # order, built without __new__'s checks; a mapping field is taken as given, not copied, so it must
    # be the new value's own
    _of_checked = classmethod(tuple.__new__)

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # False, not NotImplemented, to a tuple of another class: its reflected __eq__ would compare the fields
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class YearWindow(FrozenValue, namedtuple("YearWindow", "start_year end_year")):
    """Inclusive range of calendar years under evaluation.

    The canonical target window is five years long, e.g. 2009..2013.
    """

    __slots__ = ()

    def __new__(cls, start_year: int, end_year: int):
        if start_year > end_year:
            raise ModelError(f"window start {start_year} is after end {end_year}")
        return tuple.__new__(cls, (start_year, end_year))

    @classmethod
    def parse(cls, text: str) -> "YearWindow":
        """Parse 'START:END'."""
        try:
            start, end = text.split(":")
            if not _decimal(text):
                raise ValueError
            start, end = int(start), int(end)
        except (ValueError, TypeError) as exc:
            raise ModelError(f"cannot parse year window from {text!r}") from exc
        return cls(start, end)


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


class Event(namedtuple("Event", "kind journal year count")):
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

    # Event._of_checked((kind, journal, year, count)): the Event of fields the caller has checked as
    # __new__ does (a non-empty journal, a count in 1..MAX_COUNT), built without the checks; it is
    # tuple.__new__ itself, so no Python frame runs per event
    _of_checked = classmethod(tuple.__new__)


class AuthorCorpus(FrozenValue, namedtuple("AuthorCorpus", "author_id events group")):
    """All recorded events for one author, optionally tagged with a group.

    Multiple events with the same (kind, journal, year) are allowed and
    are summed on use, so event order never matters.
    """

    # no __slots__: the cached merged property keeps its value in the instance __dict__

    def __new__(cls, author_id: str, events: Iterable[Event], group: str | None = None):
        if not author_id:
            raise ModelError("author_id must be non-empty")
        if group is not None and not group:
            raise ModelError("group, when present, must be non-empty")
        return tuple.__new__(cls, (author_id, tuple(events), group))

    def events_of_kind(self, kind: EventKind) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def merged_counts(self, kind: EventKind) -> dict[tuple[JournalRef, int], int]:
        """Total count per (journal, year) for one kind; order independent."""
        return dict(self.merged[kind])

    @cached_property
    def merged(self) -> Mapping[EventKind, dict[tuple[JournalRef, int], int]]:
        """merge_counts of the events, made on first use and kept for every family; not to be changed."""
        return merge_counts(self.events)


def merge_counts(events: Iterable[Event]) -> dict[EventKind, dict[tuple[JournalRef, int], int]]:
    """Each kind's {(journal, year): total count}, kinds in EventKind order, in one pass.

    The (journal, year) keys come in no meaningful order; event order does not matter.
    """
    merged: dict[EventKind, dict[tuple[JournalRef, int], int]] = {kind: {} for kind in EventKind}
    for kind, journal, year, count in events:
        totals = merged[kind]
        key = (journal, year)
        totals[key] = totals.get(key, 0) + count
    return merged


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


class CoverageDiagnostics(FrozenValue, namedtuple("CoverageDiagnostics", "total_count matched_count dropped_count")):
    """How much of one event stream was usable in a weighted mean.

    total_count counts events eligible under the window policy,
    matched_count those with an impact value found, dropped_count those
    skipped under the missing-value policy. matched + dropped == total.
    """

    __slots__ = ()

    def __new__(cls, total_count: int = 0, matched_count: int = 0, dropped_count: int = 0):
        if min(total_count, matched_count, dropped_count) < 0:
            raise ModelError("coverage counts must be non-negative")
        if matched_count + dropped_count != total_count:
            raise ModelError(
                f"coverage counts inconsistent: {matched_count} matched "
                f"+ {dropped_count} dropped != {total_count} total"
            )
        return tuple.__new__(cls, (total_count, matched_count, dropped_count))


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


class IndicatorProfile(FrozenValue, namedtuple(
    "IndicatorProfile", "author_id indicator window p i r p_over_i p_over_r i_over_r pi_over_2r coverage"
)):
    """Per-author dimensions and ratios for one indicator family.

    p, i and r are weighted mean impacts of the publication, citation and
    reference streams; None marks a dimension with no matched events.
    coverage holds a copy of the mapping given, so a profile is not
    hashable.
    """

    __slots__ = ()

    def __new__(
        cls, author_id: str, indicator: IndicatorName, window: YearWindow,
        p: float | None, i: float | None, r: float | None,
        p_over_i: float | None, p_over_r: float | None, i_over_r: float | None, pi_over_2r: float | None,
        coverage: Mapping[EventKind, CoverageDiagnostics] = {},  # copied, so never changed
    ):
        for name, v in (("p", p), ("i", i), ("r", r)):
            if v is not None and v < 0:
                raise ModelError(f"dimension {name} must be non-negative, got {v}")
        return tuple.__new__(cls, (author_id, indicator, window, p, i, r, p_over_i, p_over_r, i_over_r, pi_over_2r,
                                   dict(coverage)))


class DimensionCells(NamedTuple):
    """The seven cells of one author and indicator family: P, I, R, then P/I, P/R, I/R and (P+I)/2R.

    Their field names are the cell names of every report and profiles file.
    """

    p: float | None
    i: float | None
    r: float | None
    pi: float | None
    pr: float | None
    ir: float | None
    pi2r: float | None

    @classmethod
    def from_profile(cls, profile: IndicatorProfile) -> "DimensionCells":
        return cls(profile.p, profile.i, profile.r,
                   profile.p_over_i, profile.p_over_r, profile.i_over_r, profile.pi_over_2r)


FAMILY_FIELDS = DimensionCells._fields  # the dimensions first, then the ratios


def variable_name(field: str, family: IndicatorName) -> str:
    """The report variable of one family cell, e.g. 'pi_sjr': the field, '_', the family lowercased."""
    return f"{field}_{family.lower()}"
