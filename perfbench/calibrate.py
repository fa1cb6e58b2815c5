"""Fixed reference work for measuring how fast the host runs right now.

The benchmark times this script as a cold process between its measured
processes. It imports only standard-library modules and builds, merges,
renders and parses small records, much as the program does, but it runs
none of the program's code, so a change to the program cannot change
its time.
"""

import csv
import dataclasses
import decimal  # noqa: F401  (imported for its import cost)
import email.parser  # noqa: F401
import fractions  # noqa: F401
import json
import statistics  # noqa: F401


@dataclasses.dataclass(frozen=True)
class Row:
    journal: str
    year: int
    count: int


def main() -> None:
    rows = [Row(f"Journal {i % 997:04d}", 2000 + i % 16, i % 9 + 1) for i in range(30000)]
    merged: dict[tuple, int] = {}
    for row in rows:
        key = (row.journal, row.year)
        merged[key] = merged.get(key, 0) + row.count
    text = "\n".join(f"{j},{y},{c}" for (j, y), c in sorted(merged.items()))
    parsed = list(csv.reader(text.splitlines()))
    json.dumps([dict(zip(("journal", "year", "count"), p)) for p in parsed])


if __name__ == "__main__":
    main()
