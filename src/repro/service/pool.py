"""Backend replica pools: per-destination solver instances, leased per shard.

Architecture: in the **session → shards → pool → backend** pipeline this
module owns the *replicas*.  A :class:`BackendPool` holds N independent
replicas — each with its own FDD manager, plan caches, and ``splu``
factorizations — and leases exactly one replica to each shard for the
duration of its execution, so shards leasing *different* replicas never
contend on any solver state.

Where a replica lives is not the pool's concern: the pool takes a
*replica source*, ``spawn(index, dead) -> backend``, and drives whatever
it returns through the same lease, routing, and supervision code.  The
sources (:mod:`repro.service.procpool`) are the in-process one — exactly
one replica, the session's own backend, called directly — and the
process one, whose replicas are
:class:`~repro.service.procpool.ReplicaClient` objects speaking the
worker protocol over a pipe.

Routing is **affinity first, work-stealing second**: a lease request
carries an optional affinity key (the shard's destination, set by the
planners), and

* an unassigned affinity is routed to a free replica with the fewest
  affinities (spreading destinations evenly over the pool);
* an assigned affinity sticks to the replica that already holds that
  destination's factorizations — as long as that replica is free;
* when the preferred replica is busy but another replica is idle, the
  idle replica *steals* the shard (rebuilding the destination's state
  from shipped plan specs) rather than queueing behind a busy solver —
  but the affinity binding stays with the original replica, so overflow
  work runs one-off on spare capacity while subsequent shards keep
  routing to the warm replica;
* only when every replica is busy does the request wait.

Supervision: replica failure is a *recoverable* event, not a
session-killing one.  Every replica carries a health state::

    healthy ──(ReplicaFailure in a lease)──▶ suspect
    suspect ──(probe succeeds: transient)──▶ healthy
    suspect ──(probe fails / no probe)─────▶ restarting ──▶ healthy
    restarting ──(respawn impossible)──────▶ dead  (permanent)

A lease body that raises :class:`ReplicaFailure` (worker crash, hung
worker killed by the watchdog) quarantines its replica: the replica is
marked suspect, probed once (backends with a ``ping`` — a live backend
recovers in place), and on a failed probe a background thread asks the
source for a replacement *in place at the same index* — so the affinity
map and ``lease_replica`` indices stay valid and the destination
bindings transparently re-attach to the fresh backend.  The process
source re-publishes the dead worker's adopted plans as specs, so
respawned workers never recompile.  Only when the source cannot build a
replacement (or the pool is closing) does a replica go permanently
``dead``: its affinities are unbound and, once *every* replica is dead,
lease requests fail with :class:`PoolUnavailable` instead of waiting
forever.

Lock hierarchy (strict, never nested the other way around)::

    replica lease (pool condition + per-replica busy flag)
        > session state lock (result cache, counters, model registry)
        > plan directory lock (leaf: compiles a policy once, parent-side)

A thread may take the session state lock or the plan directory lock
*while holding* a replica lease (that is how computed distributions
enter the shared result cache), but never acquires a lease while holding
either of the inner locks, and never holds two leases at once.  This
makes the hierarchy acyclic, so the pool cannot deadlock.  Respawn
threads touch only the pool condition and the dead/fresh backends —
never a session lock — so they sit at the top of the same hierarchy.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

#: Replica health states (see the supervision diagram in the module doc).
HEALTHY = "healthy"
SUSPECT = "suspect"
RESTARTING = "restarting"
DEAD = "dead"


class ReplicaFailure(RuntimeError):
    """A replica's backend failed mid-lease (crash or hang).

    This is the *structured* crash signal the supervision layer acts on:
    raising it out of a lease body quarantines the replica (probe →
    respawn) instead of silently leaving a corpse in the pool.  Queries
    are pure, so callers retry the failed shard on a healthy replica
    (see ``AnalysisSession``); exhausted retries surface as
    :class:`PoolUnavailable`.

    Attributes
    ----------
    replica:
        Index of the failed replica, when known.
    kind:
        ``"crash"`` (process died / pipe closed) or ``"timeout"`` (hung
        worker stopped by the per-shard watchdog).
    exit_code:
        The dead worker's exit code, when known (negative = signal).
    """

    def __init__(
        self,
        message: str,
        *,
        replica: int | None = None,
        kind: str = "crash",
        exit_code: int | None = None,
    ):
        super().__init__(message)
        self.replica = replica
        self.kind = kind
        self.exit_code = exit_code


class PoolUnavailable(RuntimeError):
    """No healthy replica can serve: retries exhausted or every replica dead.

    The typed terminal error of the supervision layer — callers that see
    it know the *pool* (not their query) is the problem, so the streaming
    front end maps it to the retryable ``unavailable`` wire error rather
    than a non-retryable per-query failure.
    """


class Replica:
    """One pooled backend instance plus its lease + health bookkeeping.

    ``busy`` is set exactly while the replica is leased, so all raw
    backend access happens under a lease; the pool hands out only free
    replicas, which means a shard never *blocks* on another replica's
    solver — it either gets a free replica or waits for pool capacity.
    """

    __slots__ = (
        "index",
        "backend",
        "busy",
        "leases",
        "affinities",
        "health",
        "failures",
        "restarts",
        "exit_code",
        "last_error",
    )

    def __init__(self, index: int, backend: object):
        self.index = index
        self.backend = backend
        self.busy = False
        #: Total leases granted (introspection / load balancing tiebreak).
        self.leases = 0
        #: Affinity keys currently bound to this replica.
        self.affinities: set[object] = set()
        #: Supervision state: healthy / suspect / restarting / dead.
        self.health = HEALTHY
        #: How many times this replica slot has failed.
        self.failures = 0
        #: How many times this slot's backend was respawned in place.
        self.restarts = 0
        #: Exit code of the last dead backend (worker replicas; negative = signal).
        self.exit_code: int | None = None
        #: Short description of the last failure (for reports).
        self.last_error: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "free"
        return f"Replica(#{self.index}, {state}, {self.health}, leases={self.leases})"


#: A replica source: ``spawn(index, dead)`` builds the backend of slot
#: ``index`` — a new slot when ``dead`` is ``None``, else a replacement
#: for the failed backend ``dead`` (``None`` back = cannot replace).  A
#: source may declare ``mode`` (how it hosts replicas, default
#: ``"thread"``) and ``owns_replicas`` (whether the pool closes what it
#: spawned, default ``True``).
ReplicaSource = Callable[[int, object], object]


class BackendPool:
    """N independent backend replicas with affinity-routed exclusive leases.

    Parameters
    ----------
    spawn:
        The replica source (see :data:`ReplicaSource`).  It builds every
        replica — at construction, on :meth:`resize` growth, and on
        respawn after a failure.  Its ``mode`` is reported by
        :meth:`stats` and shard reports; the in-process source hands out
        the session's own backend, which stays the session's to close
        (``owns_replicas = False``).
    size:
        Number of replicas (≥ 1).
    telemetry:
        Optional :class:`~repro.service.telemetry.Telemetry` bundle.
        When present, supervision transitions (quarantine, revive,
        respawn) update its metrics and attach span events to whatever
        span is current on the failing lease's thread; when tracing is
        on, in-process backends get a stopwatch listener so solver phases
        appear as spans.  ``None`` keeps the pool entirely
        telemetry-free.
    """

    def __init__(
        self,
        spawn: ReplicaSource,
        size: int = 1,
        *,
        telemetry=None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        #: How replicas are hosted: ``"thread"`` or ``"process"``.
        self.mode = getattr(spawn, "mode", "thread")
        self._spawn = spawn
        self._owns_replicas = getattr(spawn, "owns_replicas", True)
        self._closed = False
        self._cv = threading.Condition()
        # affinity key -> index of the replica holding that key's state.
        self._affinity: dict[object, int] = {}
        self._steals = 0
        self._failures = 0
        self._restarts = 0
        # In-flight respawn threads (joined by close()).
        self._respawns: list[threading.Thread] = []
        self._telemetry = telemetry
        self._failure_counter = None
        self._restart_counter = None
        if telemetry is not None:
            self._failure_counter = telemetry.metrics.counter(
                "repro_replica_failures_total",
                "Replica failures absorbed by pool supervision",
                labelnames=("kind",),
            )
            self._restart_counter = telemetry.metrics.counter(
                "repro_replica_restarts_total",
                "Replica backends respawned in place",
            )
        self.replicas: list[Replica] = []
        try:
            for index in range(size):
                backend = self._instrument_backend(spawn(index, None))
                self.replicas.append(Replica(index, backend))
        except BaseException:
            self._close_backends([replica.backend for replica in self.replicas])
            raise

    def _instrument_backend(self, backend: object) -> object:
        """Attach a phase-span listener to a backend's stopwatch (if traced).

        In-process replicas are instrumented here: each measured backend
        section (``compile``/``build``/``solve``/...) becomes a
        ``phase:<name>`` span under whatever span is current on the
        leasing thread.  Worker replicas have no stopwatch in this
        process — their phases are traced worker-side and shipped back —
        so this hook is a no-op for them.
        """
        telemetry = self._telemetry
        if telemetry is None or not telemetry.tracer.enabled:
            return backend
        watch = getattr(backend, "watch", None)
        if watch is not None and hasattr(watch, "listener"):
            watch.listener = telemetry.tracer.phase_listener()
        return backend

    @property
    def size(self) -> int:
        return len(self.replicas)

    @property
    def steals(self) -> int:
        """How many leases were served by stealing from a busy preferred replica."""
        return self._steals

    @property
    def restarts(self) -> int:
        """How many dead replicas were respawned in place."""
        return self._restarts

    @property
    def failures(self) -> int:
        """How many replica failures the supervision layer has absorbed."""
        return self._failures

    # -- leasing ---------------------------------------------------------------
    @contextmanager
    def lease(self, affinity: object | None = None) -> Iterator[Replica]:
        """Exclusively lease one replica (affinity-routed; blocks when full).

        A lease body raising :class:`ReplicaFailure` quarantines the
        replica (probe, then in-place respawn on a background thread)
        before the failure propagates — so the pool self-heals while the
        caller retries the shard on a healthy replica.
        """
        with self._held(self._acquire(affinity)) as replica:
            yield replica

    @contextmanager
    def lease_replica(self, index: int) -> Iterator[Replica]:
        """Exclusively lease a *specific* replica (used by pool-wide walks).

        The replica is re-fetched by index on every wake-up, so a
        concurrent :meth:`resize` that retires and replaces pool tails
        can never hand out a lease on a replica that already left the
        pool — a request for an index the pool no longer has fails
        loudly instead.  A permanently dead replica raises
        :class:`ReplicaFailure` (callers walking the pool skip it); a
        suspect/restarting replica is waited for, so warmup lands on the
        respawned backend.
        """
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if index >= len(self.replicas):
                    raise RuntimeError(
                        f"replica {index} is not in the pool (size {len(self.replicas)})"
                    )
                replica = self.replicas[index]
                if replica.health == DEAD:
                    raise ReplicaFailure(
                        f"replica {index} is dead ({replica.last_error})",
                        replica=index,
                        exit_code=replica.exit_code,
                    )
                if not replica.busy and replica.health == HEALTHY:
                    break
                self._cv.wait()
            self._grant(replica)
        with self._held(replica):
            yield replica

    @contextmanager
    def _held(self, replica: Replica) -> Iterator[Replica]:
        """The body of a granted lease: failures quarantine, exit releases."""
        try:
            yield replica
        except ReplicaFailure as failure:
            self._quarantine(replica, failure)
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
        quarantines it through the lease's own exception path — is
        skipped; the pool size is re-read per step, so a concurrent
        :meth:`resize` shrink or a close simply ends the walk early.
        """
        results: dict[int, object] = {}
        index = 0
        while index < len(self.replicas):
            try:
                with self.lease_replica(index) as replica:
                    results[index] = body(replica)
            except ReplicaFailure:
                pass  # dead or dying slot: skip it, keep walking the live ones
            except RuntimeError:
                break  # pool closed (or shrank past index) mid-walk
            index += 1
        return results

    def _acquire(self, affinity: object | None) -> Replica:
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                replica = self._select(affinity)
                if replica is not None:
                    self._grant(replica)
                    if affinity is not None:
                        bound = self._affinity.get(affinity)
                        if bound is None:
                            self._affinity[affinity] = replica.index
                            replica.affinities.add(affinity)
                        elif bound != replica.index:
                            # Stolen: the overflow shard runs one-off on the
                            # idle replica, but the binding *stays* with the
                            # warm replica — otherwise concurrent shards of
                            # one destination (the ingress planner emits
                            # several) would ping-pong the binding and every
                            # replica would rebuild the same factorizations.
                            self._steals += 1
                    return replica
                if not any(r.health != DEAD for r in self.replicas):
                    raise PoolUnavailable(
                        f"all {len(self.replicas)} replica(s) are dead and "
                        "cannot be respawned"
                    )
                self._cv.wait()

    def _select(self, affinity: object | None) -> Replica | None:
        """Pick a free healthy replica for ``affinity``, or ``None`` to wait.

        Preference order: the replica already bound to the affinity if it
        is free; otherwise any idle replica (work stealing — for a bound
        affinity this trades a state rebuild for not waiting); otherwise
        wait.  Unbound requests go to the free replica with the fewest
        affinities, then fewest leases, spreading load evenly.  Only
        healthy replicas are candidates: an affinity bound to a dead or
        restarting replica transparently falls through to the steal path
        until its home replica is healthy again.
        """
        if affinity is not None:
            bound = self._affinity.get(affinity)
            if bound is not None:
                preferred = self.replicas[bound]
                if not preferred.busy and preferred.health == HEALTHY:
                    return preferred
        free = [
            replica
            for replica in self.replicas
            if not replica.busy and replica.health == HEALTHY
        ]
        if not free:
            return None
        return min(free, key=lambda r: (len(r.affinities), r.leases, r.index))

    def _grant(self, replica: Replica) -> None:
        assert not replica.busy, "replica leased twice"
        replica.busy = True
        replica.leases += 1

    def _release(self, replica: Replica) -> None:
        with self._cv:
            replica.busy = False
            self._cv.notify_all()

    # -- supervision -----------------------------------------------------------
    def _quarantine(self, replica: Replica, failure: ReplicaFailure) -> None:
        """Handle a failed lease: probe the replica, then respawn or revive.

        Runs on the failing lease's thread *while it still holds the
        lease* (exclusive access makes the probe safe).  The replica goes
        ``suspect``; a backend with a working ``ping`` recovers in place
        (transient transport blip), anything else goes ``restarting`` and
        a daemon thread respawns the backend at the same index.
        """
        kind = getattr(failure, "kind", "crash")
        with self._cv:
            if replica.health != HEALTHY:
                return  # already quarantined (double failure on one lease)
            replica.health = SUSPECT
            replica.failures += 1
            replica.exit_code = getattr(failure, "exit_code", None)
            replica.last_error = str(failure)
            self._failures += 1
            self._cv.notify_all()
        if self._telemetry is not None:
            self._failure_counter.labels(kind=kind).inc()
            # Runs on the failing lease's thread, so the event lands on
            # the caller's current (shard) span when tracing is on.
            self._telemetry.tracer.event(
                "replica-quarantined",
                replica=replica.index,
                kind=kind,
                exit_code=replica.exit_code,
            )
        alive = False
        if kind != "timeout":  # a watchdog-stopped worker is dead by design
            probe = getattr(replica.backend, "ping", None)
            if probe is not None:
                try:
                    probe()
                    alive = True
                except Exception:  # noqa: BLE001 - any probe failure = dead
                    alive = False
        with self._cv:
            if alive:
                replica.health = HEALTHY
                self._cv.notify_all()
                if self._telemetry is not None:
                    self._telemetry.tracer.event(
                        "replica-revived", replica=replica.index
                    )
                return
            replica.health = DEAD if self._closed else RESTARTING
            self._cv.notify_all()
            if self._closed:
                return
            thread = threading.Thread(
                target=self._respawn,
                args=(replica,),
                name=f"repro-respawn-{replica.index}",
                daemon=True,
            )
            self._respawns.append(thread)
        thread.start()

    def _respawn(self, replica: Replica) -> None:
        """Background thread: replace a dead replica's backend in place.

        The fresh backend is installed at the *same index*, so the
        affinity map and ``lease_replica`` indices stay valid and bound
        destinations re-attach transparently.  When the slot was retired
        (resize shrink) or the pool closed mid-respawn, the fresh backend
        is torn down instead of installed; when the source cannot build a
        replacement, the replica goes permanently dead and its
        affinities are unbound so future leases re-route.
        """
        try:
            backend = self._spawn(replica.index, replica.backend)
        except Exception:  # noqa: BLE001 - a failed respawn = permanent death
            backend = None
        old = replica.backend
        close_old = False
        close_new = False
        with self._cv:
            current = (
                replica.index < len(self.replicas)
                and self.replicas[replica.index] is replica
            )
            if backend is None or self._closed or not current:
                replica.health = DEAD
                for key in replica.affinities:
                    self._affinity.pop(key, None)
                replica.affinities.clear()
                close_new = backend is not None
                close_old = current
            else:
                replica.backend = self._instrument_backend(backend)
                replica.health = HEALTHY
                replica.restarts += 1
                self._restarts += 1
                if self._restart_counter is not None:
                    self._restart_counter.inc()
                close_old = old is not backend
            self._cv.notify_all()
        self._close_backends(
            ([backend] if close_new else []) + ([old] if close_old else [])
        )

    # -- elasticity ------------------------------------------------------------
    def resize(self, size: int) -> int:
        """Grow or shrink the pool to ``size`` replicas; returns the new size.

        Growth asks the source for fresh replicas and makes them
        leasable immediately.  Shrinking retires replicas from
        the *tail* of the pool — replica indices are positions in the
        replica list, so the affinity map and ``lease_replica`` stay
        valid throughout — and waits for a busy tail replica's lease to
        finish before closing its backend, so downsizing never rips
        state out from under an in-flight solve.  A dead or restarting
        tail is retired without waiting (its respawn thread notices the
        retired slot and discards the fresh backend).  Affinities bound
        to a retired replica are unbound; the next query for such a
        destination re-routes (and rebuilds from shipped plan specs)
        like any unassigned key.

        The pool never shrinks below one replica, and the in-process
        source refuses to grow past one.  Safe to call concurrently with
        leasing; concurrent ``resize`` calls serialise on the pool lock.
        """
        if size < 1:
            raise ValueError("pool size must be >= 1")
        # Grow: spawn outside the condition variable (process workers take
        # real time to start).
        while True:
            with self._cv:
                if self._closed:
                    raise RuntimeError("pool is closed")
                current = len(self.replicas)
            if current >= size:
                break
            backend = self._spawn(current, None)
            with self._cv:
                if self._closed:
                    self._close_backends([backend])
                    raise RuntimeError("pool is closed")
                self.replicas.append(
                    Replica(len(self.replicas), self._instrument_backend(backend))
                )
                self._cv.notify_all()
        # Shrink: retire tails once their leases drain (never replica 0).
        retired: list[Replica] = []
        with self._cv:
            while len(self.replicas) > max(size, 1):
                tail = self.replicas[-1]
                while tail.busy:
                    if self._closed:
                        return len(self.replicas)
                    self._cv.wait()
                if self._closed:
                    return len(self.replicas)
                if self.replicas[-1] is not tail:  # concurrent resize moved it
                    continue
                self.replicas.pop()
                for key in tail.affinities:
                    self._affinity.pop(key, None)
                tail.affinities.clear()
                retired.append(tail)
            self._cv.notify_all()
        # Closing a dead backend is a cheap reap (clients are idempotent),
        # so retiring a crashed tail neither hangs nor double-joins.
        self._close_backends([replica.backend for replica in retired])
        return self.size

    def _close_backends(self, backends: list[object]) -> None:
        """Tear down pool-owned backends (a no-op for the in-process one)."""
        if not self._owns_replicas:
            return
        for backend in backends:
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close pool-owned replicas (idempotent); pending leases error out.

        Waiting lease requests fail with ``RuntimeError``; leases already
        *held* (e.g. an engine-protocol call mid-solve on another thread)
        are drained first — backends are only torn down once every
        replica is free, so ``close()`` never rips a worker or a
        factorization out from under an in-flight solve.  In-flight
        respawn threads are joined (a respawn finishing after the close
        began discards its fresh backend).
        """
        if not self._drain():
            return
        with self._cv:
            threads = list(self._respawns)
            self._respawns.clear()
        for thread in threads:
            thread.join(timeout=30.0)
        self._close_backends([replica.backend for replica in self.replicas])

    def _drain(self) -> bool:
        """Mark the pool closed and wait for every held lease to finish.

        Returns ``False`` when the pool was already closed (teardown must
        not run twice).  After the drain no replica is busy and no new
        lease can be granted, so backends can be torn down safely.  Dead
        and restarting replicas are never busy, so a crashed worker can
        not hang the drain.
        """
        with self._cv:
            if self._closed:
                return False
            self._closed = True
            self._cv.notify_all()
            for replica in self.replicas:
                while replica.busy:
                    self._cv.wait()
        return True

    def clear_caches(self, keep_plans: bool = False) -> None:
        """Clear every live replica's backend caches (under its lease).

        With ``keep_plans`` replicas that support it only reset their
        solver state (``reset_solutions``: row caches, absorption
        solutions, ``splu`` factorizations) and keep compiled plans.  A
        replica that dies mid-clear is quarantined and skipped — its
        respawned backend starts with empty caches anyway.
        """

        def clear(replica: Replica) -> None:
            backend = replica.backend
            resetter = getattr(backend, "reset_solutions", None) if keep_plans else None
            clearer = resetter or getattr(backend, "clear_caches", None)
            if clearer is not None:
                clearer()

        if not self._closed:
            self.for_each(clear)

    # -- introspection ---------------------------------------------------------
    def worker_reports(self) -> list[dict]:
        """Per-replica introspection snapshots, uniform across pool modes.

        A healthy replica is sampled under its lease: worker replicas
        answer a ``ping`` with their stats blob (``pid``,
        ``ast_compilations``, ``plans``, ``queries``), every replica adds
        its phase ``timings`` and — for backends that expose it — the
        ``solver`` counter dict (``factorizations`` / ``schur_updates`` /
        ``assembly_rows``).  A dead or restarting replica is reported as
        its status (``exit_code``, ``error``) instead of raising through
        the lease path, so introspection keeps working while the pool is
        healing; a worker found dead *by* the probe is quarantined as a
        side effect (the ordinary supervision path).  Every report
        carries ``index``, ``health`` and ``pid``.
        """
        reports: list[dict] = []
        index = 0
        while True:
            with self._cv:
                if index >= len(self.replicas):
                    break
                healthy = self.replicas[index].health == HEALTHY
            report = None
            if healthy:
                try:
                    with self.lease_replica(index) as replica:
                        probed = self._probe(replica.backend)
                        report = {**self._report(replica), **probed}
                except ReplicaFailure:
                    pass  # died under the probe: fall through to a status report
                except RuntimeError:
                    break  # pool closed (or shrank past index) mid-walk
            if report is None:
                with self._cv:
                    if index >= len(self.replicas):
                        break
                    replica = self.replicas[index]
                    report = self._report(replica)
                    report.update(exit_code=replica.exit_code, error=replica.last_error)
            report["index"] = index
            reports.append(report)
            index += 1
        return reports

    def _report(self, replica: Replica) -> dict:
        """A replica's health and the pid that hosts it."""
        return {"health": replica.health, "pid": self.worker_id(replica.index)}

    @staticmethod
    def _probe(backend: object) -> dict:
        """A leased backend's live stats: ping blob, phase timings, solver counters."""
        ping = getattr(backend, "ping", None)
        report = dict(ping()) if ping is not None else {}
        timer = getattr(backend, "timings", None)
        if timer is not None:
            report["timings"] = timer()
        solver = getattr(backend, "solver_stats", None)
        if solver is not None:
            report["solver"] = solver()
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
        """Pool shape, health, per-replica lease counts and pids, and the affinity map."""
        with self._cv:
            stats = {
                "mode": self.mode,
                "size": self.size,
                "steals": self._steals,
                "failures": self._failures,
                "restarts": self._restarts,
                "health": [replica.health for replica in self.replicas],
                "leases": [replica.leases for replica in self.replicas],
                "affinities": {
                    key: index for key, index in sorted(
                        self._affinity.items(), key=lambda item: repr(item[0])
                    )
                },
                "workers": [self.worker_id(replica.index) for replica in self.replicas],
            }
        return stats


__all__ = [
    "DEAD",
    "HEALTHY",
    "RESTARTING",
    "SUSPECT",
    "BackendPool",
    "PoolUnavailable",
    "Replica",
    "ReplicaFailure",
    "ReplicaSource",
]
