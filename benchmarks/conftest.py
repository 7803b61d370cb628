"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§6 and §7) and prints the reproduced rows/series so they can be compared
with the published plots.  Absolute times are not expected to match the
paper (this is a pure-Python reproduction of an OCaml tool running on a
cluster); the *shape* — which scheme/backend wins, and how quickly cost
grows — is the claim under test.

Set the ``REPRO_SCALE`` environment variable (default 1) to grow the
parameter sweeps, e.g. ``REPRO_SCALE=2 pytest benchmarks/``.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# The reference kernels the harnesses time against live with the tests.
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))

from bench_utils import scale, write_summaries  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--cold",
        action="store_true",
        default=False,
        help="Disable engine sharing across a figure's sweep: every "
        "configuration gets a fresh interpreter/backend (cold caches). "
        "Equivalent to REPRO_COLD=1.",
    )


def pytest_configure(config):
    if config.getoption("--cold", default=False):
        os.environ["REPRO_COLD"] = "1"


def pytest_sessionfinish(session, exitstatus):
    """Emit machine-readable BENCH_<fig>.json summaries for CI artifacts."""
    paths = write_summaries()
    if paths:
        print("\nbenchmark summaries written:")
        for path in paths:
            print(f"  {path}")


@pytest.fixture(scope="module", autouse=True)
def _settled_heap():
    """Time each harness against its own garbage only.

    Tier-1 runs the unit suite and the earlier figures in the same
    process first; without this a full collection inside a timed section
    also scans everything they left alive.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def repro_scale() -> int:
    return scale()


@pytest.fixture(scope="session")
def ab_fattree_4():
    from repro.topology import ab_fat_tree

    return ab_fat_tree(4)


@pytest.fixture(scope="session")
def fattree_4():
    from repro.topology import fat_tree

    return fat_tree(4)


