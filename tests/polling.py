"""Condition waits for tests that watch background threads and processes.

Worker exits and server loops finish on their own; a test waits for
the state it needs instead of for a fixed time.
"""

from __future__ import annotations

import asyncio
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

