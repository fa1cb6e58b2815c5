"""Reading json rows holds little more memory than reading the same rows as csv.

A json events file is decoded whole before its first row is used, so its
peak holds every row's values at once, where csv holds one line at a time.
Each row is kept as the tuple of its required fields, not as a dict of
all its keys; a dict per row raised the peak by about 40%, and the bound
sits between the two.
"""

import csv
import io
import json
import tracemalloc

from pirmetrics.io import EVENT_COLUMNS, load_events

ROWS = 20_000
BOUND = 5.0  # dict rows read 5.8-6.7, tuple rows 4.0-4.3, on Python 3.10-3.13


def _events() -> list[tuple]:
    """Rows shaped like a benchmark author's stream: 40 per author, popular journals repeating."""
    kinds = ("publication", "citation", "reference")
    return [
        (f"Author {i // 40:05d}", f"G{i // 40 % 4}", kinds[i % 3], f"Journal {i * 7919 % 1000:04d}", 2005 + i % 9, 1 + i % 4)
        for i in range(ROWS)
    ]


def _peak(text: str, fmt: str) -> int:
    """tracemalloc's peak, in bytes, while load_events reads text in fmt."""
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        load_events(stream, fmt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_events_peak_near_csv():
    rows = _events()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([EVENT_COLUMNS, *rows])
    texts = {"csv": buf.getvalue(), "json": json.dumps([dict(zip(EVENT_COLUMNS, row)) for row in rows])}
    del rows
    for fmt, text in texts.items():  # a first read, so later peaks hold no one-time allocation
        _peak(text, fmt)
    ratio = _peak(texts["json"], "json") / _peak(texts["csv"], "csv")
    assert ratio <= BOUND, f"json events peaked at {ratio:.2f}x the csv peak"
