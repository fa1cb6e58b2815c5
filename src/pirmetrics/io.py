"""File ingestion and serialisation: impact tables, events, scalar metrics.

csv is the canonical interchange format; json mirrors it with one object
per row. All text is UTF-8, decimal points are '.', and there are no
thousands separators.

File schemas
    impact_table.csv  journal,year,indicator,value
    events.csv        author_id,group,kind,journal,year,count
    scalars.csv       author_id,papers,cites,h

The profiles.csv schema lives in the report module next to its row type.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .model import MAX_COUNT, AuthorCorpus, Event, EventKind, ImpactTable, ModelError


class IngestError(ValueError):
    """A source file or stream violates its schema."""


# ---------------------------------------------------------------------------
# row plumbing

@contextmanager
def _open_text(source, label: str) -> Iterator[_stdio.TextIOBase]:
    """Accept a path or a text stream; yield a text stream.

    A path is opened here as UTF-8, dropping a leading byte order mark
    (which spreadsheet exports write), and closed on exit; a text stream
    stays the caller's. A path that cannot be opened or read, or whose
    bytes are not UTF-8, is an IngestError.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as f:
                yield f
        except UnicodeDecodeError:
            raise _not_utf8(source, label) from None
        except OSError as exc:  # a directory, say, or no permission to read
            raise IngestError(f"{label}: cannot read {source}: {exc.strerror or exc}") from None
    elif isinstance(source, _stdio.TextIOBase):
        yield source
    else:
        raise IngestError(f"cannot read from {type(source).__name__}")


def _not_utf8(path, label: str) -> IngestError:
    """The error for a file that is not UTF-8, naming its first line that does not decode.

    The text layer decodes ahead in chunks, so a reader's line count says
    nothing about where the bad byte is; the file's bytes are read again.
    """
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"{label}: line {lineno}: not UTF-8: {exc}")
    return IngestError(f"{label}: not UTF-8")


class _RepeatedKey(NamedTuple):
    """What the json reader makes of an object that repeats a key; no row is one."""

    key: str

    def __repr__(self) -> str:  # as a field error shows a nested object
        return f"an object that repeats the key {self.key!r}"


def _json_object(pairs: list[tuple[str, object]]) -> dict | _RepeatedKey:
    """A json object as a dict, or a _RepeatedKey naming the first key it repeats."""
    row = dict(pairs)
    if len(row) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(key)
            seen.add(key)
    return row


def _rows(source, fmt: str, required: list[str], label: str, pick=None):
    """Yield (line_number, fields) from csv or json input.

    fields holds the row's values of the required columns, in that order.
    Each column is found once: by its position in the csv header, or by
    key in a json row. Column order is free and other columns are
    ignored, but a repeated csv column name or json key is an error.
    pick, when given, chooses the columns read from the header (the csv
    header, or the first json row's fields), and every later json row
    must then carry exactly the first row's fields.

    A csv row is numbered by the physical line it ends on, and must have
    exactly as many fields as its header; blank lines are skipped. A csv
    syntax error (say, a bare carriage return in an unquoted field) is
    an IngestError too.
    """
    if fmt not in ("csv", "json"):
        raise IngestError(f"unknown format {fmt!r}; expected csv or json")
    with _open_text(source, label) as stream:
        if fmt == "csv":
            reader = csv.reader(stream)
            try:
                header = next(reader, None)
                if header is None:
                    raise IngestError(f"{label}: empty input, header row required")
                repeated = [c for i, c in enumerate(header) if c in header[:i]]
                if repeated:
                    raise IngestError(f"{label}: duplicate column {repeated[0]!r} in header")
                missing = [c for c in required if c not in header]
                if missing:
                    raise IngestError(f"{label}: missing columns {missing} in header")
                columns = pick(header) if pick else required
                get = itemgetter(*map(header.index, columns))
                width = len(header)
                for fields in reader:
                    if len(fields) != width:
                        if not fields:
                            continue
                        shape = "short row" if len(fields) < width else "more fields than the header"
                        raise IngestError(f"{label}: line {reader.line_num}: {shape}")
                    yield reader.line_num, get(fields)
            except csv.Error as exc:
                raise IngestError(f"{label}: line {reader.line_num}: {exc}") from None
        else:
            try:
                payload = json.load(stream, object_pairs_hook=_json_object)
            except ValueError as exc:  # a JSONDecodeError, or an integer beyond int's digit limit
                raise IngestError(f"{label}: invalid json: {exc}") from exc
            if not isinstance(payload, list):
                raise IngestError(f"{label}: expected a json array of row objects")
            first = None
            for i, row in enumerate(payload, start=1):
                if not isinstance(row, dict):
                    if isinstance(row, _RepeatedKey):
                        raise IngestError(f"{label}: row {i}: duplicate key {row.key!r}")
                    raise IngestError(f"{label}: row {i}: expected an object")
                if first is None or (pick and row.keys() != first):
                    missing = [c for c in required if c not in row]
                    if missing:
                        raise IngestError(f"{label}: row {i}: missing fields {missing}")
                    if first is not None:
                        raise IngestError(
                            f"{label}: row {i}: fields differ from the first row's: "
                            f"missing {[c for c in first if c not in row]}, extra {[c for c in row if c not in first]}"
                        )
                    first = row.keys()
                    get = itemgetter(*(pick(list(first)) if pick else required))
                try:
                    fields = get(row)
                except KeyError:  # a later row without pick lacks a required field
                    missing = [c for c in required if c not in row]
                    raise IngestError(f"{label}: row {i}: missing fields {missing}") from None
                yield i, fields


class _FieldError(IngestError):
    """A bad field or row, raised without its location; see _located."""


_KEYS = frozenset({str, int})  # the raw types a _Parsed memo may hold


class _Parsed(dict):
    """One loader call's memo of a field: raw value -> parse(raw, what), parsed on first sight.

    Rows with equal text then share one object, and a repeated text costs
    one lookup. Only exact str raws, and exact int raws from json, are
    looked up here: True, 1 and 1.0 hash alike, so a bool, float, list or
    object goes straight to the parse. A parse that raises stores nothing.
    """

    __slots__ = ("parse", "what")

    def __init__(self, parse, what: str):
        self.parse, self.what = parse, what

    def __missing__(self, raw):
        value = self[raw] = self.parse(raw, self.what)
        return value


def _located(exc: Exception, label: str, fmt: str, lineno: int) -> IngestError:
    """The loader's error for a failed row: its location, then the message."""
    return IngestError(f"{label}: {'line' if fmt == 'csv' else 'row'} {lineno}: {exc}")


def _text(raw, key: str) -> str:
    """A text field, stripped; json null reads as empty, other non-strings are rejected."""
    if isinstance(raw, str):
        return raw.strip()
    if raw is None:
        return ""
    raise _FieldError(f"{key} must be a string, got {raw!r}")


def _parse_int(raw, what: str) -> int:
    """An integer from an int, an integral float or decimal text; not a bool."""
    raw_type = type(raw)  # exact types: a bool is not an int here
    if raw_type is int:
        return raw
    try:
        if raw_type is str or (raw_type is float and raw.is_integer()):
            return int(raw)
    except ValueError:
        pass
    raise _FieldError(f"{what} must be an integer, got {raw!r}")


def _parse_count(raw, what: str) -> int:
    """An integer as _parse_int reads it, no larger than MAX_COUNT."""
    value = _parse_int(raw, what)
    if value > MAX_COUNT:
        raise _FieldError(f"{what} must be <= 2**53, got {value}")
    return value


def _parse_float(raw, what: str) -> float:
    """A finite number from a number or its text; not a bool, nan or inf."""
    try:
        if isinstance(raw, bool):
            raise ValueError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise _FieldError(f"{what} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _FieldError(f"non-finite {what} {value}")
    return value


# ---------------------------------------------------------------------------
# impact tables

def load_impact_table(source, fmt: str = "csv") -> ImpactTable:
    """Load (journal, year, indicator) -> value entries.

    Duplicate keys are rejected with both offending row locations named;
    negative or non-finite values and malformed rows are rejected with
    their location. Each distinct journal and year text is parsed once
    per call, and rows that repeat it share the parsed object.
    """
    # indicator -> ({(journal, year): value}, {(journal, year): first line})
    families: dict[str, tuple[dict[tuple[str, int], float], dict[tuple[str, int], int]]] = {}
    journals, years = _Parsed(_text, "journal"), _Parsed(_parse_int, "year")
    try:
        for lineno, (journal, year, indicator, value) in _rows(
            source, fmt, ["journal", "year", "indicator", "value"], "impact table"
        ):
            journal = journals[journal] if type(journal) is str else _text(journal, "journal")
            indicator = indicator.strip() if type(indicator) is str else _text(indicator, "indicator")
            if not journal:
                raise _FieldError("empty journal id")
            if not indicator:
                raise _FieldError("empty indicator name")
            year = years[year] if type(year) in _KEYS else _parse_int(year, "year")
            try:
                value = float(value) if type(value) is str else _parse_float(value, "impact value")
            except ValueError:  # float() refused a text field; _parse_float words the error
                value = _parse_float(value, "impact value")
            if not 0 <= value < math.inf:  # negative, nan or inf
                _parse_float(value, "impact value")  # raises for nan and inf
                raise _FieldError(f"negative impact value {value}")
            family = families.get(indicator)
            if family is None:
                family = families[indicator] = ({}, {})
            values, first_seen = family
            key = (journal, year)
            if key in values:
                unit = "line" if fmt == "csv" else "row"
                raise IngestError(
                    f"impact table: duplicate key {(journal, year, indicator)} at {unit} {lineno} "
                    f"(first seen at {unit} {first_seen[key]})"
                )
            first_seen[key] = lineno
            values[key] = value
    except _FieldError as exc:
        raise _located(exc, "impact table", fmt, lineno) from None
    return ImpactTable._of_checked({indicator: values for indicator, (values, _) in families.items()})


def save_impact_table(table: ImpactTable, destination, fmt: str = "csv") -> None:
    header = ["journal", "year", "indicator", "value"]
    save_text(_encode_table(header, sorted(table.entries()), fmt), destination)


# ---------------------------------------------------------------------------
# author events

_KINDS = {kind.value: kind for kind in EventKind}


def load_events(source, fmt: str = "csv") -> list[AuthorCorpus]:
    """Group event rows into one corpus per author, in first-seen order.

    Repeated (author, kind, journal, year) rows are kept as separate
    events; counts merge when used. The group column may be empty, but
    two different non-empty groups for one author are an error. Each
    distinct journal, year and count text is parsed once per call, and
    rows that repeat it share the parsed object.
    """
    events: dict[str, list[Event]] = {}
    groups: dict[str, str | None] = {}
    journals, years, counts = _Parsed(_text, "journal"), _Parsed(_parse_int, "year"), _Parsed(_parse_int, "count")
    try:
        for lineno, (author_id, group, kind, journal, year, count) in _rows(
            source, fmt, ["author_id", "group", "kind", "journal", "year", "count"], "events"
        ):
            author_id = author_id.strip() if type(author_id) is str else _text(author_id, "author_id")
            if not author_id:
                raise _FieldError("empty author_id")
            group = (group.strip() if type(group) is str else _text(group, "group")) or None
            try:
                kind = _KINDS[kind]
            except (KeyError, TypeError):  # any other spelling, or a json non-string
                kind = EventKind.parse(str(kind))
            year = years[year] if type(year) in _KEYS else _parse_int(year, "year")
            count = counts[count] if type(count) in _KEYS else _parse_int(count, "count")
            event = Event(kind, journals[journal] if type(journal) is str else _text(journal, "journal"), year, count)

            author_events = events.get(author_id)
            if author_events is None:
                author_events = events[author_id] = []
                groups[author_id] = group
            elif group is not None:
                if groups[author_id] is None:
                    groups[author_id] = group
                elif groups[author_id] != group:
                    raise _FieldError(
                        f"author {author_id!r} has conflicting groups "
                        f"{groups[author_id]!r} and {group!r}"
                    )
            author_events.append(event)
    except (_FieldError, ModelError) as exc:
        raise _located(exc, "events", fmt, lineno) from None

    return [
        AuthorCorpus(author_id, tuple(evs), group=groups[author_id])
        for author_id, evs in events.items()
    ]


def save_events(corpora: Iterable[AuthorCorpus], destination, fmt: str = "csv") -> None:
    header = ["author_id", "group", "kind", "journal", "year", "count"]
    data = [
        [c.author_id, c.group or "", e.kind.value, e.journal, e.year, e.count]
        for c in corpora
        for e in c.events
    ]
    save_text(_encode_table(header, data, fmt), destination)


# ---------------------------------------------------------------------------
# scalar metrics

@dataclass(frozen=True)
class ScalarMetrics:
    """Supplied whole-career counters for one author.

    h can never exceed the paper count, and cannot exceed the citation
    count once there is at least one paper. No relation between h**2 and
    cites is assumed.
    """

    author_id: str
    papers: int
    cites: int
    h: int

    def __post_init__(self):
        if min(self.papers, self.cites, self.h) < 0:
            raise _FieldError(f"{self.author_id!r}: negative scalar metric")
        if self.h > self.papers:
            raise _FieldError(
                f"{self.author_id!r}: h ({self.h}) exceeds paper count ({self.papers})"
            )
        if self.papers > 0 and self.h > self.cites:
            raise _FieldError(
                f"{self.author_id!r}: h ({self.h}) exceeds citation count ({self.cites})"
            )


def load_scalars(source, fmt: str = "csv") -> dict[str, ScalarMetrics]:
    """Load per-author paper/citation/h counters, keyed by author id."""
    out: dict[str, ScalarMetrics] = {}
    try:
        for lineno, (author_id, papers, cites, h) in _rows(
            source, fmt, ["author_id", "papers", "cites", "h"], "scalars"
        ):
            author_id = author_id.strip() if type(author_id) is str else _text(author_id, "author_id")
            if not author_id:
                raise _FieldError("empty author_id")
            if author_id in out:
                raise _FieldError(f"duplicate author_id {author_id!r}")
            papers = _parse_count(papers, "papers")
            cites = _parse_count(cites, "cites")
            h = _parse_count(h, "h")
            out[author_id] = ScalarMetrics(author_id, papers, cites, h)
    except _FieldError as exc:
        raise _located(exc, "scalars", fmt, lineno) from None
    return out


def save_scalars(scalars: Mapping[str, ScalarMetrics], destination, fmt: str = "csv") -> None:
    data = [[m.author_id, m.papers, m.cites, m.h] for m in scalars.values()]
    save_text(_encode_table(["author_id", "papers", "cites", "h"], data, fmt), destination)


# ---------------------------------------------------------------------------
# shared writers

def save_text(text: str, destination) -> None:
    """Write text to an open stream, or atomically to a path.

    A path is written through a temporary file in its directory that
    replaces it only once complete, so a failed write leaves any earlier
    file untouched and no partial file behind.
    """
    if not isinstance(destination, (str, Path)):
        destination.write(text)
        return
    path = Path(destination)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode_table(header: Sequence[str], data: Iterable[Sequence], fmt: str) -> str:
    """The one csv/json encoding of a table: every save_* writer and report table uses it.

    csv writes the cells as given (a float as its repr, None as empty);
    json writes an array with one object per row and the raw values.
    """
    if fmt == "csv":
        buf = _stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
        return buf.getvalue()
    if fmt == "json":  # indent=2's layout, from the C encoder that json.dumps(indent=2) does not use
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode
        rows = [  # each row framed as it is encoded: keeping every encoded row first raised peak memory
            f"\n  {{\n    {text[1:-1]}\n  }}" if (text := encode(dict(zip(header, row)))) != "{}" else "\n  {}"
            for row in data
        ]
        return "".join(["[", ",".join(rows), "\n]\n"]) if rows else "[]\n"
    raise IngestError(f"unknown format {fmt!r}; expected csv or json")
