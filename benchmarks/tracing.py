"""In-memory spans around the benchmark's calls into the library.

A span is ``(name, start, end, parent, op_id, n, samples)``: ``parent`` is
the index of the enclosing span (``-1`` for an op span), ``n`` the system
size of the call and ``samples`` the Monte Carlo sample count (0 when the
call draws none).  Spans stay in a list until the run ends; nothing is
written while the clock runs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, OP_ID, SIZE, SAMPLES = range(7)


class Tracer:
    """Collects nested spans for one run of one workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str, n: int, samples: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._op_id, n, samples])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Span of one benchmark op; library spans opened inside are its children."""
        self._op_id = op_id
        idx = self._open("bench.op", 0, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, size, samples=None):
        """``fn`` with a span named ``name`` around every call.

        ``size(args, kwargs)`` gives the system size recorded on the span and
        ``samples(args, kwargs)`` the Monte Carlo sample count.
        """
        def traced(*args, **kwargs):
            idx = self._open(name, size(args, kwargs),
                             samples(args, kwargs) if samples else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        own = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, dur in zip(self.spans, own):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur
        return own - child

    def summary(self) -> dict:
        """Per span name: call count, busy (self) seconds and durations by size.

        Names never traced read as zero calls with no durations.
        """
        selfs = self.self_times()
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                         "by_n": defaultdict(list),
                                         "samples_by_n": defaultdict(int)})
        for s, st in zip(self.spans, selfs):
            entry = out[s[NAME]]
            entry["calls"] += 1
            entry["busy_s"] += float(st)
            entry["by_n"][s[SIZE]].append(s[END] - s[START])
            entry["samples_by_n"][s[SIZE]] += s[SAMPLES]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "op": s[OP_ID], "n": s[SIZE],
                    "samples": s[SAMPLES]}) + "\n")
