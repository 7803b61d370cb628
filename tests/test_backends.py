"""Tests for the native engine ("PNK"): the FDD compiler and the forward interpreter."""

import pytest

from repro.core.compiler import Compiler
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet
from repro.network import running_example as ex


@pytest.fixture(scope="module")
def example():
    return ex.build()


class TestNativeBackend:
    def test_compile_and_query(self, example):
        fdd = Compiler(exact=True).compile(example.models_naive["f0"])
        assert fdd is not None
        dist = Interpreter(exact=True).output_distribution(
            example.models_naive["f0"], example.ingress_packet
        )
        assert dist(Packet({"sw": 2, "pt": 2, "up2": 0, "up3": 0})) == 1

    def test_output_distributions_per_ingress(self, example):
        dists = Interpreter().output_distributions(
            example.models_resilient["f2"], [example.ingress_packet]
        )
        assert len(dists) == 1

    def test_uniform_ingress_set(self, example):
        dist = Interpreter().output_distribution(
            example.naive, [Packet({"sw": 1, "pt": 1}), Packet({"sw": 2, "pt": 1})]
        )
        assert float(dist.total_mass()) == pytest.approx(1.0)

    def test_certain_outcomes_passthrough(self, example):
        outcomes, diverge = Interpreter().certain_outcomes(
            example.models_resilient["f1"], example.ingress_packet
        )
        assert not diverge
        assert all(o is not DROP for o in outcomes)
