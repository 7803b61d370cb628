"""Backend replica pools: solver instances leased per destination group.

Architecture: in the **session → pool → backend** pipeline this module
owns the *replicas*.  A :class:`BackendPool` holds N independent
replicas — each with its own FDD manager, plan caches, and ``splu``
factorizations — and leases exactly one replica to each destination
group of a batch for the duration of its solve, so groups leasing
*different* replicas never contend on any solver state.

Where a replica lives is not the pool's concern: the pool takes a
*replica source*, ``spawn(index) -> backend``, calls it once per slot
when it is built, and drives whatever it returns through the same lease
code.  The sources (:mod:`repro.service.procpool`) are the in-process
one — exactly one replica, the session's own backend, called directly —
and the process one, whose replicas are
:class:`~repro.service.procpool.ReplicaClient` objects speaking the
worker protocol over a pipe.  Both kinds of replica implement the same
backend surface, so the pool calls it directly.

Leasing: :meth:`BackendPool.lease` grants the lowest-index free live
replica and waits when none is free.  Sequential traffic therefore stays
on replica 0, whose plans and factorizations are warm, and concurrent
groups overflow to the next free replica.  Each grant counts on the
replica's ``repro_pool_leases_total`` series in the pool's metrics
registry, which is what :meth:`BackendPool.stats` reports.

Crashes: a lease body that raises :class:`ReplicaFailure` (its worker
died) marks the replica dead and re-raises, so the caller's group
fails.  A dead replica leaves the rotation for good and later leases go
to the remaining replicas.  Nothing is respawned or retried.  Once every
replica is dead, lease requests fail with :class:`PoolUnavailable`
instead of waiting forever.

Lock hierarchy (strict, never nested the other way around)::

    replica lease (pool condition + per-replica busy flag)
        > session state lock (result cache, counters, model registry)
        > plan directory lock (leaf: compiles a policy once, parent-side)

A thread may take the session state lock or the plan directory lock
*while holding* a replica lease (that is how computed distributions
enter the shared result cache), but never acquires a lease while holding
either of the inner locks, and never holds two leases at once.  This
makes the hierarchy acyclic, so the pool cannot deadlock.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.service.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.matrix import MatrixBackend
    from repro.service.procpool import ReplicaClient
    from repro.service.telemetry import _Child

    Backend = MatrixBackend | ReplicaClient


class ReplicaFailure(RuntimeError):
    """A replica's backend died mid-lease (its worker exited or its pipe closed).

    Raising it out of a lease body marks the replica dead; the failure
    then propagates to the caller, whose group fails.  The streaming
    front end maps it to the retryable ``unavailable`` wire error: the
    remaining replicas serve a resent query.

    Attributes
    ----------
    replica:
        Index of the failed replica, when known.
    exit_code:
        The dead worker's exit code, when known (negative = signal).
    """

    def __init__(self, message: str, *, replica: int | None = None, exit_code: int | None = None):
        super().__init__(message)
        self.replica = replica
        self.exit_code = exit_code


class PoolUnavailable(RuntimeError):
    """No replica is left to serve: every one of them is dead.

    Callers that see it know the *pool* (not their query) is the
    problem, so the streaming front end maps it to the retryable
    ``unavailable`` wire error rather than a per-query failure.
    """


class Replica:
    """One pooled backend instance plus its lease bookkeeping.

    ``busy`` is set exactly while the replica is leased, so all raw
    backend access happens under a lease; the pool hands out only free
    replicas, which means a lease never *blocks* on another replica's
    solver — it either gets a free replica or waits for pool capacity.
    """

    __slots__ = ("index", "backend", "leases", "busy", "dead", "exit_code", "last_error")

    def __init__(self, index: int, backend: Backend, leases: _Child):
        self.index = index
        self.backend = backend
        #: This replica's ``repro_pool_leases_total`` series (grants so far).
        self.leases = leases
        self.busy = False
        #: Set once a lease body raised ReplicaFailure; never cleared.
        self.dead = False
        #: Exit code of the dead backend (worker replicas; negative = signal).
        self.exit_code: int | None = None
        #: Short description of the failure (for reports).
        self.last_error: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "busy" if self.busy else "free"
        return f"Replica(#{self.index}, {state}, leases={int(self.leases.get())})"


class ReplicaSource(Protocol):
    """Builds the backend of each pool slot: ``spawn(index)``.

    ``mode`` says how it hosts replicas (``"thread"`` or ``"process"``);
    ``owns_replicas`` whether the pool closes what it spawned.
    """

    mode: str
    owns_replicas: bool

    def __call__(self, index: int) -> Backend: ...


class BackendPool:
    """N independent backend replicas, each leased exclusively, lowest index first.

    Parameters
    ----------
    spawn:
        The replica source (see :class:`ReplicaSource`), called once per
        slot here.  Its ``mode`` is reported by :meth:`stats` and batch
        reports; the in-process source hands out the session's own
        backend, which stays the session's to close
        (``owns_replicas = False``).
    size:
        Number of replicas (≥ 1), fixed until :meth:`close`.
    telemetry:
        The :class:`~repro.service.telemetry.Telemetry` bundle whose
        registry counts leases (a fresh one when ``None``).  When tracing
        is on, in-process backends get a stopwatch listener so solver
        phases appear as spans, and a replica's death is an event on the
        failing lease's current span.
    """

    def __init__(self, spawn: ReplicaSource, size: int = 1, *, telemetry: Telemetry | None = None):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        #: How replicas are hosted: ``"thread"`` or ``"process"``.
        self.mode = spawn.mode
        self._owns_replicas = spawn.owns_replicas
        self._closed = False
        self._cv = threading.Condition()
        self._telemetry = Telemetry.coerce(telemetry)
        leases = self._telemetry.metrics.counter(
            "repro_pool_leases_total", "Leases granted per replica", labelnames=("replica",)
        )
        self.replicas: list[Replica] = []
        try:
            for index in range(size):
                backend = self._instrument_backend(spawn(index))
                self.replicas.append(Replica(index, backend, leases.labels(replica=index)))
        except BaseException:
            self._close_backends([replica.backend for replica in self.replicas])
            raise

    def _instrument_backend(self, backend: Backend) -> Backend:
        """Attach a phase-span listener to a backend's stopwatch (if traced).

        In-process replicas are instrumented here: each measured backend
        section (``compile``/``build``/``solve``/...) becomes a
        ``phase:<name>`` span under whatever span is current on the
        leasing thread.  Worker replicas have no stopwatch in this
        process — their phases are traced worker-side and shipped back —
        so this hook is a no-op for them.
        """
        tracer = self._telemetry.tracer
        watch = getattr(backend, "watch", None)
        if tracer.enabled and watch is not None:
            watch.listener = tracer.phase_listener()
        return backend

    @property
    def size(self) -> int:
        return len(self.replicas)

    # -- leasing ---------------------------------------------------------------
    @contextmanager
    def lease(self) -> Iterator[Replica]:
        """Exclusively lease the lowest-index free live replica (blocks when none is free).

        A lease body raising :class:`ReplicaFailure` marks the replica
        dead before the failure propagates; with no live replica left
        the request raises :class:`PoolUnavailable`.
        """
        with self._held(self._acquire()) as replica:
            yield replica

    @contextmanager
    def lease_replica(self, index: int) -> Iterator[Replica]:
        """Exclusively lease a *specific* replica (used by pool-wide walks).

        A dead replica raises :class:`ReplicaFailure` (callers walking
        the pool skip it); a busy one is waited for.
        """
        replica = self.replicas[index]
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if replica.dead:
                    raise ReplicaFailure(
                        f"replica {index} is dead ({replica.last_error})",
                        replica=index,
                        exit_code=replica.exit_code,
                    )
                if not replica.busy:
                    break
                self._cv.wait()
            self._grant(replica)
        with self._held(replica):
            yield replica

    @contextmanager
    def _held(self, replica: Replica) -> Iterator[Replica]:
        """The body of a granted lease: a failure marks it dead, exit releases."""
        try:
            yield replica
        except ReplicaFailure as failure:
            self._mark_dead(replica, failure)
            raise
        finally:
            self._release(replica)

    def for_each(self, body: Callable[[Replica], object]) -> dict[int, object]:
        """Run ``body(replica)`` under every live replica's lease, in turn.

        This is the pool-wide walk (warmup, cache clearing): pre-planning
        must reach each replica's private caches, and taking the ordinary
        lease path (instead of touching backends directly) is what makes
        it safe against concurrent ``query_batch`` traffic on the same
        destination.  Returns ``{index: body's result}`` for the replicas
        reached.  A replica that is dead — or dies under ``body``, which
        marks it dead through the lease's own exception path — is
        skipped; a concurrent close ends the walk early.
        """
        results: dict[int, object] = {}
        for index in range(self.size):
            try:
                with self.lease_replica(index) as replica:
                    results[index] = body(replica)
            except ReplicaFailure:
                pass  # dead or dying slot: skip it, keep walking the live ones
            except RuntimeError:
                break  # pool closed mid-walk
        return results

    def _acquire(self) -> Replica:
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                for replica in self.replicas:
                    if not replica.busy and not replica.dead:
                        self._grant(replica)
                        return replica
                if all(replica.dead for replica in self.replicas):
                    raise PoolUnavailable(f"all {self.size} replica(s) are dead")
                self._cv.wait()

    def _grant(self, replica: Replica) -> None:
        assert not replica.busy, "replica leased twice"
        replica.busy = True
        replica.leases.inc()

    def _release(self, replica: Replica) -> None:
        with self._cv:
            replica.busy = False
            self._cv.notify_all()

    def _mark_dead(self, replica: Replica, failure: ReplicaFailure) -> None:
        """Take a failed replica out of the rotation (on the failing lease's thread).

        The backend is kept until :meth:`close`, so reports still show
        its pid and exit code.
        """
        with self._cv:
            if replica.dead:
                return
            replica.dead = True
            replica.exit_code = failure.exit_code
            replica.last_error = str(failure)
            self._cv.notify_all()
        self._telemetry.tracer.event(
            "replica-dead", replica=replica.index, exit_code=replica.exit_code
        )

    def _close_backends(self, backends: list[Backend]) -> None:
        """Tear down pool-owned backends (a no-op for the in-process one)."""
        if self._owns_replicas:
            for backend in backends:
                backend.close()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close pool-owned replicas (idempotent); pending leases error out.

        Waiting lease requests fail with ``RuntimeError``; leases already
        *held* (e.g. an engine-protocol call mid-solve on another thread)
        are drained first — backends are only torn down once every
        replica is free, so ``close()`` never rips a worker or a
        factorization out from under an in-flight solve.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
            for replica in self.replicas:
                while replica.busy:
                    self._cv.wait()
        self._close_backends([replica.backend for replica in self.replicas])

    def clear_caches(self, keep_plans: bool = False) -> None:
        """Clear every live replica's backend caches (under its lease).

        With ``keep_plans`` replicas only reset their solver state
        (``reset_solutions``: row caches, absorption solutions, ``splu``
        factorizations) and keep compiled plans.  A replica that dies
        mid-clear is marked dead and skipped.
        """

        def clear(replica: Replica) -> None:
            if keep_plans:
                replica.backend.reset_solutions()
            else:
                replica.backend.clear_caches()

        if not self._closed:
            self.for_each(clear)

    # -- introspection ---------------------------------------------------------
    def worker_reports(self) -> list[dict]:
        """Per-replica introspection snapshots, uniform across pool modes.

        A live replica is sampled under its lease: worker replicas
        answer a ``ping`` with their stats blob (``pid``,
        ``ast_compilations``, ``plans``, ``queries``), and every replica
        adds its phase ``timings`` and its ``solver`` counter dict
        (``factorizations`` / ``schur_updates`` / ``assembly_rows``).  A
        dead replica is reported by its ``exit_code`` and ``error``
        instead of raising through the lease path; a worker found dead
        *by* the probe is marked dead on the way.  Every report carries
        ``index``, ``dead`` and ``pid``.
        """
        reports: list[dict] = []
        for replica in self.replicas:
            report = None
            if not replica.dead:
                try:
                    with self.lease_replica(replica.index) as leased:
                        report = {**self._report(leased), **self._probe(leased.backend)}
                except ReplicaFailure:
                    pass  # died under the probe: fall through to a status report
                except RuntimeError:
                    break  # pool closed mid-walk
            if report is None:
                with self._cv:
                    report = self._report(replica)
                    report.update(exit_code=replica.exit_code, error=replica.last_error)
            report["index"] = replica.index
            reports.append(report)
        return reports

    def _report(self, replica: Replica) -> dict:
        """Whether a replica is dead, and the pid that hosts it."""
        return {"dead": replica.dead, "pid": self.worker_id(replica.index)}

    @staticmethod
    def _probe(backend: Backend) -> dict:
        """A leased backend's live stats: ping blob, phase timings, solver counters."""
        ping = getattr(backend, "ping", None)
        report = dict(ping()) if ping is not None else {}
        report["timings"] = backend.timings()
        report["solver"] = backend.solver_stats()
        return report

    def worker_id(self, index: int) -> int:
        """The OS pid hosting replica ``index``.

        The in-process replica lives in the current process; a worker
        replica reports its worker's pid, so benchmark artifacts carry
        direct evidence of cross-process execution.
        """
        pid = getattr(self.replicas[index].backend, "pid", None)
        return os.getpid() if pid is None else pid

    def stats(self) -> dict[str, object]:
        """Pool shape, dead replicas, per-replica lease counts and pids.

        ``leases`` reads each replica's ``repro_pool_leases_total``
        series back from the registry.
        """
        with self._cv:
            return {
                "mode": self.mode,
                "size": self.size,
                "dead": [replica.index for replica in self.replicas if replica.dead],
                "leases": [int(replica.leases.get()) for replica in self.replicas],
                "workers": [self.worker_id(replica.index) for replica in self.replicas],
            }


__all__ = [
    "BackendPool",
    "PoolUnavailable",
    "Replica",
    "ReplicaFailure",
    "ReplicaSource",
]
