"""Condition waits for tests that watch background threads and processes.

Respawns, reconnects and worker exits finish on their own threads; a
test waits for the state it needs instead of for a fixed time.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.005) -> bool:
    """Poll ``predicate`` until it holds; ``False`` if ``timeout`` passes first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


async def wait_until_async(
    predicate, timeout: float = 30.0, interval: float = 0.005
) -> bool:
    """:func:`wait_until` inside an event loop: the loop runs while it polls."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return bool(predicate())


def kill_busy_workers(
    pool, stop: threading.Event, killed: list[int], timeout: float = 60.0
) -> None:
    """SIGKILL a process replica caught mid-lease, until the pool registers a failure.

    Waits for a busy, healthy replica; kills it and records its index in
    ``killed``.  If the kill raced a reply that had already left the pipe,
    no failure registers, and the next busy replica is struck too.  Returns
    when a failure registers, ``stop`` is set, or ``timeout`` passes.
    Run it on a thread beside the batch it should interrupt.
    """
    from repro.service.pool import HEALTHY

    deadline = time.monotonic() + timeout
    busy: list = []

    def caught() -> bool:
        busy[:] = [r for r in pool.replicas if r.busy and r.health == HEALTHY]
        return bool(busy) or stop.is_set()

    while not stop.is_set() and wait_until(
        caught, timeout=max(0.0, deadline - time.monotonic()), interval=0.0005
    ):
        for replica in busy:
            if stop.is_set():
                return
            if not (replica.busy and replica.health == HEALTHY):
                continue
            os.kill(replica.backend.pid, signal.SIGKILL)
            killed.append(replica.index)
            if wait_until(lambda: pool.failures > 0, timeout=2.0):
                return
