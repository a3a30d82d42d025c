"""In-memory spans for the traced benchmark run.

A span records one of the benchmark's own calls into a library layer: its
name, start, end, the span that enclosed it and the id of the op it belongs
to.  Spans stay in memory and are written out once, at the end of the run.
The untraced run uses ``NullTracer``, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """Tracer used for the end-to-end run: records nothing."""

    def __init__(self):
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records spans and work counts; one instance per run."""

    def __init__(self):
        self.op_id: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add a work count for the current op; counts of the warm-up are dropped."""
        if self.op_id is not None:
            self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the timed ops.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op is not None:
                out[name] += (end - start) - child_time[i]
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of every span with this name in the timed ops."""
        return [e - s for n, s, e, _, op in self.spans if n == name and op is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
