"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import syntax as s
from repro.core.packet import Packet, PacketUniverse
from repro.network import running_example

# Tier-1 must fail for one reason on every machine: by default hypothesis
# derives each test's examples from the test itself, not from a clock or a
# local database, and prints the blob that replays a failure.  Random search
# stays available — ``--hypothesis-profile explore`` draws a fresh seed and
# four times the examples (``test_properties.examples`` scales each test's
# own count by the profile's) — and CI runs it as a step that cannot gate.
settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.register_profile(
    "explore", derandomize=False, print_blob=True, max_examples=4 * settings.default.max_examples
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def tiny_universe() -> PacketUniverse:
    """A two-field universe small enough for the reference semantics."""
    return PacketUniverse({"f": [0, 1], "g": [0, 1]})


@pytest.fixture(scope="session")
def running_example_bundle() -> running_example.RunningExample:
    """The §2 running example (naive/resilient schemes under f0/f1/f2)."""
    return running_example.build()


@pytest.fixture(scope="session")
def ab_fattree_4():
    """The p=4 AB FatTree used throughout the §7 case study."""
    from repro.topology import ab_fat_tree

    return ab_fat_tree(4)


@pytest.fixture(scope="session")
def fattree_4():
    from repro.topology import fat_tree

    return fat_tree(4)


@pytest.fixture
def coin() -> s.Policy:
    """A fair coin flip over field ``f``."""
    return s.choice((s.assign("f", 0), 0.5), (s.assign("f", 1), 0.5))


@pytest.fixture
def ingress_packet() -> Packet:
    return Packet({"sw": 1, "pt": 1})

