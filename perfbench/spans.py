"""In-memory spans and self-time arithmetic.

A span is a list ``[name, start, end, parent, tag]``: ``start``/``end`` come
from ``time.perf_counter``, ``parent`` is the index of the enclosing span
(-1 at the top) and ``tag`` is an optional value the instrumentation attaches
(a state dimension, a pair count). Spans stay in memory and are written out
once, after the measurement.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records nested spans of one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def parent_name(self):
        """Name of the innermost open span, None at the top."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def open(self, name: str, tag=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        rec = self.open(name, tag)
        try:
            yield rec
        finally:
            self.close(rec)

    def add(self, name: str, start: float, end: float, parent: int,
            tag=None) -> None:
        """Append a finished span whose interval was measured elsewhere."""
        self.spans.append([name, start, end, parent, tag])

    def write_csv(self, path) -> None:
        """One row per span, times relative to the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent",
                          "tag"])
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                out.writerow([i, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent,
                              "" if tag is None else tag])


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(s[START], s[END], children.get(i, ()))
            for i, s in enumerate(spans)]


def ancestors(spans, index: int):
    """Names of the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]
