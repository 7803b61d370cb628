"""The persistent shard executor of the analysis service.

Architecture: in the **session → shards → pool → backend** pipeline this
module *runs* the shards.  One :class:`ShardExecutor` lives as long as
its owning :class:`~repro.service.session.AnalysisSession`: its thread
pool is started lazily on the first multi-shard batch and then reused by
every subsequent batch, so steady-state serving pays no pool start-up
cost per batch (the session likewise keeps its backend replicas alive
for its whole lifetime).

Executor workers are always *threads*, in every pool mode: the session
result cache is shared in-place, merge needs no serialisation, and each
shard leases its *own* backend replica from the session's
:class:`~repro.service.pool.BackendPool` — there is no session-wide
solver lock, so shards on different replicas contend on nothing.  Where
the replica's solve actually *runs* is the pool's concern, not the
executor's: the in-process replica runs it on the executor thread, while
a worker replica (:class:`~repro.service.procpool.ProcessReplicas`) runs
the whole solve in its worker process and the executor thread merely
waits on the pipe — which is why the same thread executor drives full
multi-core parallelism in process mode.  Executor threads only ever block on pool
*capacity* (every replica busy), never on another replica's solver
lock.  Size ``workers >= pool_size`` to be able to drive every replica
at once.  Closing the executor (or its owning session) tears the thread
pool down; ``workers=1`` runs shards inline with no pool at all.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Upper bound on default worker threads (shard work is coarse-grained).
_DEFAULT_WORKER_CAP = 8


class ShardExecutor:
    """A persistent, lazily started thread pool for shard execution."""

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = (
            workers
            if workers is not None
            else min(_DEFAULT_WORKER_CAP, os.cpu_count() or 1)
        )
        self._pool: ThreadPoolExecutor | None = None
        self._dispatch: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def started(self) -> bool:
        """Whether the thread pool has been started (it starts lazily)."""
        return self._pool is not None

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, concurrently, preserving item order.

        Single-item batches and ``workers=1`` run inline (deterministic,
        no pool).  The pool, once started, persists until :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return list(self._pool.map(fn, items))

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Run ``fn(*args)`` on the *dispatch* pool; returns its future.

        This is the asynchronous submission surface the streaming front
        end drives: a whole-batch call (``session.query_batch``) is
        dispatched here and later calls :meth:`map` to fan its shards out.
        Dispatch runs on a **separate** thread pool from the shard
        workers, deliberately: if batch dispatch shared the shard pool, a
        window of concurrent batches could occupy every worker thread
        with batch coordinators, each blocked waiting for shard slots
        none of them can free — a classic same-pool deadlock.  Keeping
        the two stages on distinct pools makes the pipeline acyclic.  The
        dispatch pool is sized like the shard pool (up to ``workers``
        concurrent batches) and started lazily on first use.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._dispatch is None:
            self._dispatch = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-dispatch"
            )
        return self._dispatch.submit(fn, *args)

    def close(self) -> None:
        """Shut both pools down (idempotent); subsequent calls fail.

        The dispatch pool drains first: every in-flight batch runs to
        completion (and may keep using the shard pool while it does),
        then the shard pool is drained and torn down.
        """
        self._closed = True
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ShardExecutor"]
