"""Fault injection for worker processes: one harness for chaos tests.

The supervision layer in :mod:`repro.service.pool` /
:mod:`repro.service.procpool` promises that replica death is recoverable
— this module makes death *reproducible*.  A :class:`FaultPlan` is a
small set of :class:`Fault` directives ("kill worker 1 after it served 3
query requests", "delay every reply of worker 0 by 250 ms", "drop worker
2's pipe"), encoded as a compact string so it crosses the process
boundary through the environment:

* activation: set the ``REPRO_FAULTS`` environment variable **before**
  the pool spawns workers (the :func:`active` context manager and the
  ``inject_faults`` pytest fixture do the bookkeeping).  Workers read
  the variable once at process start — under both ``fork`` and ``spawn``
  start methods — and a *respawned* worker at the same index re-reads
  the same plan, so a fault like ``kill@1:after=0`` keeps firing on
  every incarnation of worker 1 until the plan is deactivated;
* spec grammar: ``;``-separated faults, each
  ``KIND@TARGET[:OPT=VALUE...]`` where ``KIND`` is ``kill`` / ``drop`` /
  ``delay``, ``TARGET`` is a worker index or ``all``, and options are
  ``after=K`` (arm after K served query requests, default 0), ``ms=M``
  (duration for ``delay``), and ``exit=N`` (kill exit status, default
  137 — the code a SIGKILLed process reports).
  Example: ``kill@1:after=5;delay@all:ms=30``.

Faults apply to **query** requests only: plan shipping, resets, pings,
and the respawn path's plan re-publication are never sabotaged, so an
injected crash exercises exactly the paths a real mid-solve crash would
(and a respawned worker still comes up spec-fed, with 0 AST
compilations).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, MutableMapping

#: Environment variable holding the active fault spec.
REPRO_FAULTS = "REPRO_FAULTS"

#: Recognised fault kinds.
KINDS = ("kill", "drop", "delay")

#: Default kill status: what a SIGKILLed process reports (128 + 9).
KILLED = 137


@dataclass(frozen=True)
class Fault:
    """One injected fault directive.

    ``worker`` is the target worker index (``None`` = every worker);
    ``after`` arms the fault only once the worker has served that many
    query requests (so e.g. ``after=3`` lets three shards through and
    kills the fourth); ``ms`` is the per-reply delay for ``delay``
    faults; ``exit_code`` is the status a ``kill`` fault dies with.
    """

    kind: str
    worker: int | None = None
    after: int = 0
    ms: float = 0.0
    exit_code: int = KILLED

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {KINDS})")
        if self.after < 0:
            raise ValueError("after= must be >= 0")
        if self.ms < 0:
            raise ValueError("ms= must be >= 0")

    def spec(self) -> str:
        """The compact string form (inverse of :meth:`FaultPlan.parse`)."""
        target = "all" if self.worker is None else str(self.worker)
        parts = [f"{self.kind}@{target}"]
        if self.after:
            parts.append(f"after={self.after}")
        if self.kind == "delay":
            parts.append(f"ms={self.ms:g}")
        if self.kind == "kill" and self.exit_code != KILLED:
            parts.append(f"exit={self.exit_code}")
        return ":".join(parts)


class FaultPlan:
    """A parsed set of faults, distributable to workers by index."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: tuple[Fault, ...] = tuple(faults)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see the module doc)."""
        faults: list[Fault] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, *options = chunk.split(":")
            kind, _, target = head.partition("@")
            worker = None if target in ("", "all", "*") else int(target)
            after, ms, exit_code = 0, 0.0, KILLED
            for option in options:
                name, sep, value = option.partition("=")
                if not sep:
                    raise ValueError(f"malformed fault option {option!r} in {chunk!r}")
                if name == "after":
                    after = int(value)
                elif name == "ms":
                    ms = float(value)
                elif name == "exit":
                    exit_code = int(value)
                else:
                    raise ValueError(f"unknown fault option {name!r} in {chunk!r}")
            faults.append(Fault(kind.strip(), worker, after=after, ms=ms, exit_code=exit_code))
        return cls(faults)

    @classmethod
    def from_env(cls, environ: MutableMapping[str, str] = os.environ) -> "FaultPlan | None":
        """The active plan per ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        spec = environ.get(REPRO_FAULTS)
        if not spec:
            return None
        plan = cls.parse(spec)
        return plan if plan else None

    def spec(self) -> str:
        """The compact string form, suitable for ``REPRO_FAULTS``."""
        return ";".join(fault.spec() for fault in self.faults)

    def for_worker(self, index: int) -> "WorkerFaults | None":
        """The faults targeting worker ``index`` (or ``None`` when clean)."""
        mine = [f for f in self.faults if f.worker is None or f.worker == index]
        return WorkerFaults(mine) if mine else None

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r})"


class WorkerFaults:
    """Worker-side fault state, consulted from the request loop.

    ``served`` counts *query* requests this worker has answered; the
    hooks compare it against each fault's ``after`` threshold.
    """

    def __init__(self, faults: Iterable[Fault]):
        self.faults = tuple(faults)

    def _armed(self, kind: str, served: int) -> Fault | None:
        for fault in self.faults:
            if fault.kind == kind and served >= fault.after:
                return fault
        return None

    def sabotage_query(self, served: int) -> str | None:
        """Pre-compute hook: die or drop the pipe *before* answering.

        Returns ``"drop"`` when the request loop should close its
        connection and exit (simulating a broken transport); a ``kill``
        fault never returns — the process exits immediately with the
        fault's exit code, mimicking a SIGKILL (no cleanup, no reply,
        no exception crossing the pipe).
        """
        fault = self._armed("kill", served)
        if fault is not None:
            os._exit(fault.exit_code)
        if self._armed("drop", served) is not None:
            return "drop"
        return None

    def delay_reply(self, served: int) -> None:
        """Post-compute hook: stall the reply (exercises the watchdog)."""
        fault = self._armed("delay", served)
        if fault is not None and fault.ms > 0:
            time.sleep(fault.ms / 1000.0)


@contextmanager
def active(
    plan: "FaultPlan | str", environ: MutableMapping[str, str] = os.environ
) -> Iterator[None]:
    """Temporarily activate a fault plan via ``REPRO_FAULTS``.

    Workers read the variable at process start, so the plan must be
    active *before* the pool spawns (or respawns) the targeted worker;
    deactivation only affects workers started afterwards.
    """
    spec = plan if isinstance(plan, str) else plan.spec()
    previous = environ.get(REPRO_FAULTS)
    environ[REPRO_FAULTS] = spec
    try:
        yield
    finally:
        if previous is None:
            environ.pop(REPRO_FAULTS, None)
        else:
            environ[REPRO_FAULTS] = previous


__all__ = [
    "KILLED",
    "KINDS",
    "REPRO_FAULTS",
    "Fault",
    "FaultPlan",
    "WorkerFaults",
    "active",
]
