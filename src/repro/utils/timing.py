"""The stopwatch the backends time their phases with."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stopwatch:
    """Accumulates wall-clock time across several measured sections.

    An optional ``listener`` is called as ``listener(name, elapsed)``
    after every measured section — the hook the service's telemetry
    layer uses to turn backend phases into trace spans without the
    backend knowing tracing exists.  A listener that raises would
    poison the measured operation's normal return path, so keep them
    trivial (the telemetry listener only buffers a record).

    Example
    -------
    >>> watch = Stopwatch()
    >>> with watch.measure("compile"):
    ...     sum(range(10))
    45
    >>> watch.total() >= 0
    True
    """

    sections: dict[str, float] = field(default_factory=dict)
    listener: Callable[[str, float], None] | None = None

    @contextmanager
    def measure(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.sections[name] = self.sections.get(name, 0.0) + elapsed
            if self.listener is not None:
                self.listener(name, elapsed)

    def total(self) -> float:
        """Total time accumulated over all sections, in seconds."""
        return sum(self.sections.values())

    def __getitem__(self, name: str) -> float:
        return self.sections[name]

