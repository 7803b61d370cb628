"""The benchmark's own span recorder: name, start, end, parent.

Deliberately independent of ``repro.service.telemetry`` and
``repro.utils.timing``: the benchmark times the program from outside, so
a refactor of the program's own instrumentation can neither break nor
bias these numbers.  Spans stay in memory and are written out once, as
Chrome-trace JSON (open in https://ui.perfetto.dev), when a run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Recorder:
    """Nested spans on one thread, plus after-the-fact spans for async code."""

    def __init__(self) -> None:
        #: ``[name, parent index or None, start, end, track]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter(), None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None, track: int) -> int:
        """Record a finished span (asyncio code knows a request's times late).

        Spans on one ``track`` must nest; overlapping requests of different
        connections therefore go on one track per connection.
        """
        self.spans.append([name, parent, start, end, track])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [span[3] - span[2] for span in self.spans if span[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, index: int) -> float:
        """Span duration minus the part of it that its child spans cover."""
        start, end = self.spans[index][2:4]
        covered, cursor = 0.0, start
        children = sorted(span[2:4] for span in self.spans if span[1] == index)
        for child_start, child_end in children:
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        return (end - start) - covered

    def self_total(self, name: str) -> float:
        return sum(self.self_time(i) for i, span in enumerate(self.spans) if span[0] == name)

    def residual_share(self, root_name: str) -> float:
        """Unaccounted share of the end-to-end spans called ``root_name``."""
        total = self.total(root_name)
        return self.self_total(root_name) / total if total else 0.0

    def write_chrome_trace(self, path: str) -> None:
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": track,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for name, parent, start, end, track in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
