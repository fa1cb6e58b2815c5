"""File ingestion and serialisation: impact tables, events, scalar metrics.

csv is the canonical interchange format; json mirrors it with one object
per row, and is imported only where it is read or written, so a process
that handles csv alone never loads it. A json row is kept as its required
fields once decoded; the text is decoded a second time only for a bad
row, or a nested object that holds every required field (see _rows).
All text is UTF-8, and numbers are ASCII decimal text: '.' is the
decimal point, with no thousands or '_' separators.

File schemas, each named once and read and written through that name
    impact_table.csv  journal,year,indicator,value             IMPACT_COLUMNS
    events.csv        author_id,group,kind,journal,year,count  EVENT_COLUMNS
    scalars.csv       author_id,papers,cites,h                 ScalarMetrics._fields

The profiles.csv schema lives in the report module next to its row type.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .model import MAX_COUNT, AuthorCorpus, Event, EventKind, FrozenValue, ImpactTable, ModelError, _decimal


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
    """What _by_name makes of pairs that repeat a name; no row is one."""

    key: str

    def __repr__(self) -> str:  # as a field error shows a nested object
        return f"an object that repeats the key {self.key!r}"


def _by_name(pairs: list[tuple[str, object]]) -> dict | _RepeatedKey:
    """(name, value) pairs as a dict, or a _RepeatedKey naming the first name they repeat.

    The one repeated-name rule: a json object's keys, and a csv header's
    column names, mapped to their positions.
    """
    row = dict(pairs)
    if len(row) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(key)
            seen.add(key)
    return row


def _rows(source, fmt: str, required: Sequence[str], label: str, pick=None):
    """Yield (line_number, fields) from csv or json input.

    fields holds the row's values of the required columns, in that order.
    Column order is free and other columns are ignored. Each column is
    found by name in one map, built once: the csv header's {name:
    position}, or a json row itself. _by_name builds both, so a repeated
    csv column name or json key is the same error, naming the first name
    repeated. pick, when given, chooses the columns read from the header
    (the csv header, or the first json row's fields), and every later
    json row must then carry exactly the first row's fields.

    A csv row is numbered by the physical line it ends on, and must have
    exactly as many fields as its header; blank lines are skipped. A csv
    syntax error (say, a bare carriage return in an unquoted field) is
    an IngestError too.

    json text is decoded whole. Without pick, each row object that holds
    every required field is kept as those fields once decoded, so no
    dict per row outlives the decode. json makes no tuple, so when the
    kept objects are exactly the rows, every row is valid and the text
    is decoded once. Otherwise (a row lacks a field, repeats a key or is
    no object, or a nested object also held every field) the text is
    decoded again into dicts, and each row is checked as below, so every
    message and row number is the same. The text is dropped before the
    first row is yielded.
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
                position = _by_name([(name, i) for i, name in enumerate(header)])
                if isinstance(position, _RepeatedKey):
                    raise IngestError(f"{label}: duplicate column {position.key!r} in header")
                missing = [c for c in required if c not in position]
                if missing:
                    raise IngestError(f"{label}: missing columns {missing} in header")
                get = itemgetter(*map(position.__getitem__, pick(header) if pick else required))
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
            import json  # here, so a process that reads and writes only csv never loads it
            text = stream.read()
            # the one check of a row's required fields, the first row's included: a KeyError from need
            need = get = itemgetter(*required)
            kept = 0

            def fields_of(pairs):  # _by_name, but a row object holding every required field is kept as them
                nonlocal kept
                row = dict(pairs)
                if len(row) < len(pairs):
                    return _by_name(pairs)
                try:
                    fields = need(row)
                except KeyError:
                    return row
                kept += 1
                return fields

            try:
                payload = json.loads(text, object_pairs_hook=_by_name if pick else fields_of)
            # a JSONDecodeError, an integer beyond int's digit limit, or nesting deeper than the recursion limit
            except (ValueError, RecursionError) as exc:
                raise IngestError(f"{label}: invalid json: {exc}") from exc
            if not isinstance(payload, list):
                raise IngestError(f"{label}: expected a json array of row objects")
            if not pick:
                # json makes no tuple, so the rows are the kept objects, and no other object was kept,
                # only when the counts agree and every row is a plain tuple (a _RepeatedKey is a subclass)
                if kept == len(payload) and {tuple}.issuperset(map(type, payload)):
                    del text
                    yield from enumerate(payload, start=1)
                    return
                payload = json.loads(text, object_pairs_hook=_by_name)
            del text
            first = None
            for i, row in enumerate(payload, start=1):
                if not isinstance(row, dict):
                    if isinstance(row, _RepeatedKey):
                        raise IngestError(f"{label}: row {i}: duplicate key {row.key!r}")
                    raise IngestError(f"{label}: row {i}: expected an object")
                try:
                    if pick and row.keys() != first:
                        need(row)  # before the fields-differ check, so a row lacking a required field says so
                        if first is not None:
                            raise IngestError(
                                f"{label}: row {i}: fields differ from the first row's: "
                                f"missing {[c for c in first if c not in row]}, extra {[c for c in row if c not in first]}"
                            )
                        first = row.keys()
                        get = itemgetter(*pick(list(first)))
                    fields = get(row)
                except KeyError:
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


def _encodable(text: str, what: str) -> str:
    """The text, if UTF-8 can encode it; a lone surrogate, which a json escape may spell, fits no file or path."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise _FieldError(f"{what} is not valid text, got {text!r}") from None
    return text


def _text(raw, key: str) -> str:
    """A text field, stripped; json null reads as empty, non-strings and text UTF-8 cannot encode are rejected."""
    if isinstance(raw, str):
        return _encodable(raw, key).strip()
    if raw is None:
        return ""
    raise _FieldError(f"{key} must be a string, got {raw!r}")


def _parse_int(raw, what: str) -> int:
    """An integer from an int, an integral float or decimal text; not a bool."""
    raw_type = type(raw)  # exact types: a bool is not an int here
    if raw_type is int:
        return raw
    try:
        if (raw_type is str and _decimal(raw)) or (raw_type is float and raw.is_integer()):
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
    """A finite number from a number or its decimal text; not a bool, nan or inf."""
    try:
        if isinstance(raw, bool) or (isinstance(raw, str) and not _decimal(raw)):
            raise ValueError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise _FieldError(f"{what} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _FieldError(f"non-finite {what} {value}")
    return value


# ---------------------------------------------------------------------------
# impact tables

IMPACT_COLUMNS = ("journal", "year", "indicator", "value")  # as ImpactTable.entries() yields an entry


# compute reads the impact table in a forked child, while it reads the events, only where the child
# can be placed (see _TableRead) and the smaller of the two files holds at least this many bytes.
# The overlap can hide no more than the smaller read, and the fork, the pipe and the decode cost 4-5
# ms in process, against 0.4 ms to read the bundled 3.6 KB table. On csv files cut from a benchmark
# workload (2 CPUs, the child on the CPU the parent was not on, min of 50 runs, three runs per size)
# the forked reads were 0.3-3 ms slower at 96-192 KiB, level within noise at 256 KiB (-8 to +1 ms),
# 1-2 ms faster at 320 KiB and 10-13 ms faster at 1 MiB; so the fixtures stay serial, and full-size
# inputs fork.
FORK_MIN_BYTES = 256 * 1024


def _current_cpu() -> int | None:
    """The CPU this process runs on, from field 39 of /proc/self/stat; None where that is not known."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rpartition(b")")[2].split()[36])  # fields 3 on follow the command's ')'
    except (OSError, IndexError, ValueError):
        return None


class _TableRead:
    """An impact table file for load_impact_table to read, begun in a forked child where that pays.

    The child is forked only where the platform can fork, no other thread
    runs, both the table and the file read alongside it hold at least
    FORK_MIN_BYTES, and the child can be placed: the process may run on
    two CPUs or more, and the platform tells which one the parent runs
    on. The child first pins itself to the other allowed CPUs, so the two
    reads do not share one; the parent's own affinity is never changed.
    Everywhere else the read is serial. While the caller goes on, the
    child runs load_impact_table(path, fmt), sends the table's families
    back through a pipe as marshal bytes, and ends with os._exit: it runs
    no atexit handler, flushes no stream and writes no file. Without a
    child, or when the child sends no whole payload (a refused pin
    included), load_impact_table reads the path itself, so every result,
    error and message is the serial read's. As a context manager it
    kills and reaps a child that nothing collected, so no process
    outlives the block, whatever the block raises.
    """

    __slots__ = ("path", "_pid", "_fd")

    def __init__(self, path: Path, fmt: str, alongside: Path):
        self.path, self._pid, self._fd = path, None, None
        try:
            large = min(path.stat().st_size, alongside.stat().st_size) >= FORK_MIN_BYTES
        except OSError:  # a missing or unreadable file: the serial read words the error
            return
        import threading  # loaded at start-up already
        # a child holds a copy of every lock other threads held at the fork, and could wait on one forever
        if not large or not hasattr(os, "fork") or threading.active_count() > 1:
            return
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        cpus = allowed - {_current_cpu()}
        if not cpus or cpus == allowed:  # one CPU, or the parent's is not known: no place for the child
            return
        self._fd, write_fd = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                os.sched_setaffinity(0, cpus)
                import marshal
                os.close(self._fd)
                with open(write_fd, "wb") as pipe:
                    pipe.write(marshal.dumps(load_impact_table(path, fmt)._families))
                code = 0
            finally:  # whatever was raised: the parent reads the path again and meets it there
                os._exit(code)
        os.close(write_fd)

    def _collect(self) -> dict | None:
        """The families the child read, or None when no child sent them whole; the child is reaped."""
        if self._pid is None:
            return None
        pipe, self._fd = open(self._fd, "rb", buffering=0), None  # unbuffered: read() is one growing buffer
        with pipe:
            payload = pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if status == 0:
            import marshal
            try:
                return marshal.loads(payload)
            except (EOFError, ValueError, TypeError):  # a short or undecodable payload
                pass
        return None

    def __enter__(self) -> _TableRead:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._pid is not None:
            import signal
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def load_impact_table(source, fmt: str = "csv") -> ImpactTable:
    """Load (journal, year, indicator) -> value entries.

    Duplicate keys are rejected with both offending row locations named;
    negative or non-finite values and malformed rows are rejected with
    their location. Each distinct journal, indicator and year text is
    parsed once per call, and rows that repeat it share the parsed object.
    source is a path, a text stream, or a _TableRead, whose child's table
    is taken as read, or whose path is read here when no child sent one.
    """
    if isinstance(source, _TableRead):
        read = source._collect()
        if read is not None:
            return ImpactTable._of_checked(read)
        source = source.path
    # indicator -> ({(journal, year): value}, {(journal, year): first line})
    families: dict[str, tuple[dict[tuple[str, int], float], dict[tuple[str, int], int]]] = {}
    journals, indicators, years = _Parsed(_text, "journal"), _Parsed(_text, "indicator"), _Parsed(_parse_int, "year")
    try:
        for lineno, (journal, year, indicator, value) in _rows(source, fmt, IMPACT_COLUMNS, "impact table"):
            journal = journals[journal] if type(journal) is str else _text(journal, "journal")
            indicator = indicators[indicator] if type(indicator) is str else _text(indicator, "indicator")
            if not journal:
                raise _FieldError("empty journal id")
            if not indicator:
                raise _FieldError("empty indicator name")
            year = years[year] if type(year) in _KEYS else _parse_int(year, "year")
            value = _parse_float(value, "impact value")
            if value < 0:
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
    save_text(_encode_table(IMPACT_COLUMNS, sorted(table.entries()), fmt), destination)


# ---------------------------------------------------------------------------
# author events

_KINDS = {kind.value: kind for kind in EventKind}
EVENT_COLUMNS = ("author_id", "group", *Event._fields)


def load_events(source, fmt: str = "csv") -> list[AuthorCorpus]:
    """Group event rows into one corpus per author, in first-seen order.

    Repeated (author, kind, journal, year) rows are kept as separate
    events; counts merge when used. The group column may be empty, but
    two different non-empty groups for one author are an error. Each
    distinct author id, group, journal, year and count text is parsed
    once per call, and rows that repeat it share the parsed object.
    """
    events: dict[str, list[Event]] = {}
    groups: dict[str, str | None] = {}
    author_ids, group_names = _Parsed(_text, "author_id"), _Parsed(_text, "group")
    journals, years, counts = _Parsed(_text, "journal"), _Parsed(_parse_int, "year"), _Parsed(_parse_int, "count")
    try:
        for lineno, (author_id, group, kind, journal, year, count) in _rows(source, fmt, EVENT_COLUMNS, "events"):
            author_id = author_ids[author_id] if type(author_id) is str else _text(author_id, "author_id")
            if not author_id:
                raise _FieldError("empty author_id")
            group = (group_names[group] if type(group) is str else _text(group, "group")) or None
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
    data = [
        [c.author_id, c.group or "", e.kind.value, e.journal, e.year, e.count]
        for c in corpora
        for e in c.events
    ]
    save_text(_encode_table(EVENT_COLUMNS, data, fmt), destination)


# ---------------------------------------------------------------------------
# scalar metrics

class ScalarMetrics(FrozenValue):
    """Supplied whole-career counters for one author.

    h can never exceed the paper count, and cannot exceed the citation
    count once there is at least one paper. No relation between h**2 and
    cites is assumed.
    """

    __slots__ = _fields = ("author_id", "papers", "cites", "h")

    def __init__(self, author_id: str, papers: int, cites: int, h: int):
        if min(papers, cites, h) < 0:
            raise _FieldError(f"{author_id!r}: negative scalar metric")
        if h > papers:
            raise _FieldError(f"{author_id!r}: h ({h}) exceeds paper count ({papers})")
        if papers > 0 and h > cites:
            raise _FieldError(f"{author_id!r}: h ({h}) exceeds citation count ({cites})")
        self._freeze(author_id, papers, cites, h)


def load_scalars(source, fmt: str = "csv") -> dict[str, ScalarMetrics]:
    """Load per-author paper/citation/h counters, keyed by author id."""
    out: dict[str, ScalarMetrics] = {}
    try:
        for lineno, (author_id, papers, cites, h) in _rows(source, fmt, ScalarMetrics._fields, "scalars"):
            author_id = _text(author_id, "author_id")
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
    save_text(_encode_table(ScalarMetrics._fields, [m._values() for m in scalars.values()], fmt), destination)


# ---------------------------------------------------------------------------
# shared writers

def save_text(text: str, destination) -> None:
    """Write text to an open stream, or atomically to a path as save_texts does."""
    if isinstance(destination, (str, Path)):
        save_texts({Path(destination): text})
    else:
        destination.write(text)


def save_texts(files: Mapping[Path, str]) -> None:
    """Write each path's text, the whole set or none of it.

    Every text goes first to a temporary file in its path's directory;
    only once all are complete does each replace its path, so a failed
    write leaves every earlier file untouched and no temporary file
    behind. An OSError raised here names the path being written as its
    filename. On posix each temporary file is held locked until it has
    replaced its path, and since a killed run can leave no cleanup behind
    it, each path's temporary files that no run holds are removed first.
    """
    posix = os.name == "posix"
    if posix:
        _remove_abandoned_temporaries(files)
    staged = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    held: list[int] = []  # a second descriptor of each staged file, holding its lock until the replace
    opener = partial(_open_locked, held=held) if posix else None
    try:
        for path, tmp in staged.items():
            with open(tmp, "w", encoding="utf-8", newline="", opener=opener) as f:
                f.write(files[path])
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            exc.filename = str(path)
        raise
    finally:
        for fd in held:
            os.close(fd)


def _open_locked(path: Path, flags: int, held: list[int]) -> int:
    """open()'s opener for a temporary file: the file at path, created and locked, then emptied.

    The file is emptied only once locked, and only while it is still the
    file at path: a cleanup may have locked and removed it between the
    open and the lock, and then it is made again. A duplicate descriptor,
    appended to held, keeps the lock once open() closes its own. A
    symlink at path is refused (ELOOP), never followed.
    """
    import fcntl

    while True:
        fd = os.open(path, flags & ~os.O_TRUNC | os.O_NOFOLLOW, 0o666)
        try:
            with suppress(OSError):  # a file system without locks: the file is written unlocked, as before
                fcntl.flock(fd, fcntl.LOCK_EX)
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                os.ftruncate(fd, 0)
                held.append(os.dup(fd))
                return fd
        except FileNotFoundError:  # os.stat: the name is gone, so the file is made again
            pass
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


def _remove_abandoned_temporaries(paths: Iterable[Path]) -> None:
    """Remove each path's .<name>.<pid>.tmp files that no run is writing.

    A file goes only when its pid names no process here and no process
    holds its lock. A pid is known only in its own pid namespace, so a run
    in another container, or on another host, sharing the directory can
    look dead here; save_texts's lock keeps that run's files. A run of a
    version without the lock keeps them only where its pid can be seen.
    """
    names: dict[Path, set[str]] = {}
    for path in paths:
        names.setdefault(path.parent, set()).add(path.name)
    for directory, wanted in names.items():
        try:
            entries = os.listdir(directory)
        except OSError:  # staging meets and words it
            continue
        for entry in entries:
            name, _, pid = entry[1:-4].rpartition(".")
            if entry[0] != "." or not entry.endswith(".tmp") or name not in wanted:
                continue
            if not (pid.isascii() and pid.isdigit()):  # the pid save_texts writes, in ascii digits
                continue
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                _remove_unlocked(directory / entry)
            except (OSError, OverflowError):  # not ours to signal, or no pid at all
                pass


def _remove_unlocked(path: Path) -> None:
    """Remove path where no process holds its lock, taking the lock for the removal.

    It opens for writing, as a lock over NFS needs, and without blocking,
    so a fifo cannot stall it, and without following a symlink, so a
    link's target is never opened. Whatever it cannot open, lock or
    match to the file still at path stays.
    """
    import fcntl

    try:
        fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
    except OSError:
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if os.path.samestat(os.fstat(fd), os.stat(path)):
            os.unlink(path)
    except OSError:  # held by a run that is writing it, or gone
        pass
    finally:
        os.close(fd)


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
        import json  # as in _rows
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode
        rows = [  # each row framed as it is encoded: keeping every encoded row first raised peak memory
            f"\n  {{\n    {text[1:-1]}\n  }}" if (text := encode(dict(zip(header, row)))) != "{}" else "\n  {}"
            for row in data
        ]
        return "".join(["[", ",".join(rows), "\n]\n"]) if rows else "[]\n"
    raise IngestError(f"unknown format {fmt!r}; expected csv or json")
