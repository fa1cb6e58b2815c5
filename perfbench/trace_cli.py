"""Run one pirmetrics command in-process, with spans at the layer boundaries.

    python perfbench/trace_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...

The program is not changed: every public function of `io`, `engine`,
`report` and `stats` is wrapped where another module calls it (the
`cli` namespace, and `report`'s reference to `stats`), so calls inside
one module are not traced. A span records name, start, end, the index of
its parent span and the command id, plus counts taken from the returned
value. Spans stay in memory and are written to SPANS_JSON when the
command exits; the process exits with the command's exit code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from contextlib import contextmanager


def _rows(result) -> dict:
    return {"rows": len(result)}


def _events(corpora) -> dict:
    return {"rows": sum(len(c.events) for c in corpora)}


def _coverage(profiles) -> dict:
    eligible = matched = 0
    for profile in profiles:
        for diag in profile.coverage.values():
            eligible += diag.total_count
            matched += diag.matched_count
    return {"eligible": eligible, "matched": matched}


def _bytes(text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


COUNTERS = {
    "io.load_events": _events,
    "io.load_impact_table": _rows,
    "io.load_scalars": _rows,
    "engine.compute_profiles": _coverage,
    "report.load_profiles": _rows,
    "report.render_table": _bytes,
    "report.render_correlation_text": _bytes,
    "report.render_boxplot_svg": _bytes,
}


def _family(args, kwargs) -> str:
    indicator = args[2] if len(args) > 2 else kwargs["indicator"]
    return indicator.lower()


# spans whose name also carries an argument, e.g. engine.compute_profiles.sjr
LABELS = {"engine.compute_profiles": _family}


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[list] = []  # [name, start, end, parent, command, counts]
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.command, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        label = LABELS.get(name)

        def traced(*args, **kwargs):
            record = self._open(name if label is None else f"{name}.{label(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[5] = count(result)
            return result

        return traced


def boundary(module, layer: str, tracer: Tracer) -> types.ModuleType:
    """A stand-in for `module` whose public functions record spans."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(vars(module))
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            setattr(proxy, name, tracer.wrap(f"{layer}.{name}", obj))
    return proxy


def reroute(caller, proxies: dict) -> None:
    """Point the caller's module and function references at the proxies."""
    by_module = {proxy.__name__: proxy for proxy in proxies.values()}
    for name, obj in list(vars(caller).items()):
        if isinstance(obj, types.ModuleType) and obj.__name__ in by_module:
            setattr(caller, name, by_module[obj.__name__])
        elif inspect.isfunction(obj) and obj.__module__ in by_module:
            setattr(caller, name, getattr(by_module[obj.__module__], name))


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command, cli_args = argv[1], argv[2], argv[4:]
    tracer = Tracer(command)
    code = 0
    try:
        with tracer.span("import"):
            from pirmetrics import cli, engine, io, report, stats
        proxies = {
            layer: boundary(module, layer, tracer)
            for layer, module in (("io", io), ("engine", engine), ("report", report), ("stats", stats))
        }
        reroute(report, {"stats": proxies["stats"]})
        reroute(cli, proxies)
        try:
            cli.main(args=cli_args, prog_name="pirmetrics")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"command": command, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
