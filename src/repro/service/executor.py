"""The persistent thread pools of the analysis service.

One :class:`ShardExecutor` lives as long as its owning
:class:`~repro.service.session.AnalysisSession` and holds two lazily
started thread pools, reused by every batch:

* the *dispatch* pool runs whole batches for
  :meth:`~repro.service.session.AnalysisSession.submit_batch` (the
  streaming front end's surface);
* the *shard* pool runs a batch's destination groups concurrently, and
  the session uses it only when ``min(workers, pool size) > 1``, which
  means worker processes: each group then leases its own replica and the
  thread merely waits on the pipe while the solve runs in the worker.
  With one replica every group runs inline on the calling thread, since
  a second thread could only queue on the same lease.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Upper bound on default worker threads (the work is coarse-grained).
_DEFAULT_WORKER_CAP = 8


class ShardExecutor:
    """Persistent, lazily started dispatch and shard thread pools."""

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

        A whole-batch call (``session.query_batch``) is dispatched here
        and may later call :meth:`map` to fan its groups out.  Dispatch
        runs on a **separate** pool from :meth:`map`, deliberately: if
        they shared one, concurrent batches could occupy every thread
        with coordinators, each waiting for slots none of them can free.
        The dispatch pool is sized like the shard pool (up to
        ``workers`` concurrent batches) and started lazily on first use.
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
        then the shard pool is torn down.
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
