"""Tests for the native backend facade."""

import pytest

from repro.backends import NativeBackend
from repro.core.packet import DROP, Packet
from repro.network import running_example as ex


@pytest.fixture(scope="module")
def example():
    return ex.build()


class TestNativeBackend:
    def test_compile_and_query(self, example):
        backend = NativeBackend(exact=True)
        fdd = backend.compile(example.models_naive["f0"])
        assert fdd is not None
        dist = backend.output_distribution(example.models_naive["f0"], example.ingress_packet)
        assert dist(Packet({"sw": 2, "pt": 2, "up2": 0, "up3": 0})) == 1

    def test_fdd_size_positive(self, example):
        backend = NativeBackend()
        assert backend.fdd_size(example.naive) > 1

    def test_output_distributions_per_ingress(self, example):
        backend = NativeBackend()
        dists = backend.output_distributions(
            example.models_resilient["f2"], [example.ingress_packet]
        )
        assert len(dists) == 1

    def test_uniform_ingress_set(self, example):
        backend = NativeBackend()
        dist = backend.output_distribution(example.naive, [Packet({"sw": 1, "pt": 1}), Packet({"sw": 2, "pt": 1})])
        assert float(dist.total_mass()) == pytest.approx(1.0)

    def test_timings_recorded(self, example):
        backend = NativeBackend()
        backend.compile(example.naive)
        backend.output_distribution(example.naive, example.ingress_packet)
        timings = backend.timings()
        assert set(timings) == {"compile", "query"}
        assert all(value >= 0 for value in timings.values())

    def test_certain_outcomes_passthrough(self, example):
        backend = NativeBackend()
        outcomes, diverge = backend.certain_outcomes(
            example.models_resilient["f1"], example.ingress_packet
        )
        assert not diverge
        assert all(o is not DROP for o in outcomes)
