"""The fig11 tables answer each ``(scheme, bound)`` once per model factory.

``model_factory(scheme, k)`` builds the model of ``(scheme, k)``, so its
models and their output distributions are values of the factory: the
tables keep them in a store that lives as long as the factory does.
"""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest

from repro.analysis import resilience
from repro.analysis.resilience import compare_schemes, refinement_table, resilience_table
from repro.core import equivalence
from repro.core.equivalence import compare
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree

SCHEMES = ["f10_0", "f10_3", "f10_3_5"]
PAIRS = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]
BOUNDS = [0, 1, 2]


@pytest.fixture(scope="module")
def topology():
    return ab_fat_tree(4)


def counting_factory(topology):
    calls = []

    def factory(scheme, k):
        calls.append((scheme, k))
        return f10_model(
            topology, 1, scheme=scheme, failure_probability=Fraction(1, 4), max_failures=k
        )

    return factory, calls


def test_both_tables_build_each_model_once(topology):
    factory, calls = counting_factory(topology)
    resilience_table(factory, SCHEMES, BOUNDS)
    refinement_table(factory, PAIRS, BOUNDS, exact=True)
    # Without the store: 9 for fig11b, then two models per scheme pair and
    # one per teleport pair, per bound: 24.
    assert sorted(calls, key=repr) == sorted(
        [(scheme, k) for scheme in SCHEMES for k in BOUNDS], key=repr
    )


def test_a_second_factory_starts_empty(topology):
    first, first_calls = counting_factory(topology)
    second, second_calls = counting_factory(topology)
    resilience_table(first, ["f10_0"], [0])
    resilience_table(second, ["f10_0"], [0])
    resilience_table(first, ["f10_0"], [0])
    assert first_calls == second_calls == [("f10_0", 0)]


def test_the_store_goes_with_its_factory(topology):
    factory, _ = counting_factory(topology)
    refinement_table(factory, [("f10_0", "teleport")], [0], exact=True)
    model = weakref.ref(resilience._STORES[factory].models["f10_0", 0])
    assert model() is not None
    del factory
    gc.collect()
    assert model() is None


def test_refinement_table_equals_compare_cell_by_cell(topology):
    factory, _ = counting_factory(topology)
    table = refinement_table(factory, PAIRS, BOUNDS, exact=True)
    for left, right in PAIRS:
        for k in BOUNDS:
            reference = factory(left, k)
            other = reference.teleport if right == "teleport" else factory(right, k).policy
            want = compare(reference.policy, other, reference.ingress_packets, exact=True)
            assert table[left, right][k] == want, (left, right, k)


def test_sides_a_cell_lacks_share_one_interpreter(topology, monkeypatch):
    created = []

    class Recorded(equivalence.Interpreter):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(equivalence, "Interpreter", Recorded)
    factory, _ = counting_factory(topology)
    refinement_table(factory, PAIRS[:2], [1], exact=True)
    # f10_0 and f10_3 on one interpreter; then only f10_3_5 is missing.
    assert len(created) == 2
    refinement_table(factory, PAIRS[:2], [1], exact=True)
    assert len(created) == 2


def test_a_factory_returning_one_model_for_every_key(topology):
    model = f10_model(
        topology, 1, scheme="f10_3", failure_probability=Fraction(1, 4), max_failures=1
    )
    assert resilience_table(lambda scheme, k: model, ["f10_0", "f10_3"], [0, 1]) == {
        "f10_0": {0: True, 1: True},
        "f10_3": {0: True, 1: True},
    }
    table = refinement_table(lambda scheme, k: model, [("a", "b"), ("a", "teleport")], [1])
    assert table == {("a", "b"): {1: "≡"}, ("a", "teleport"): {1: "≡"}}


def test_a_factory_that_cannot_be_weakly_referenced(topology):
    class Factory:
        __slots__ = ("calls",)

        def __init__(self):
            self.calls = 0

        def __call__(self, scheme, k):
            self.calls += 1
            return f10_model(
                topology, 1, scheme=scheme, failure_probability=Fraction(1, 4), max_failures=k
            )

    factory = Factory()
    assert resilience_table(factory, ["f10_0", "f10_0"], [0]) == {"f10_0": {0: True}}
    assert factory.calls == 1  # the store lasted the call
    resilience_table(factory, ["f10_0"], [0])
    assert factory.calls == 2


def test_compare_schemes_runs_each_model_on_one_interpreter(topology, monkeypatch):
    models = {
        scheme: f10_model(
            topology, 1, scheme=scheme, failure_probability=Fraction(1, 4), max_failures=1
        )
        for scheme in SCHEMES
    }
    created = []

    class Recorded(Interpreter):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(resilience, "Interpreter", Recorded)
    results = compare_schemes(models, exact=True)
    assert results == {
        (left, right): compare(
            models[left].policy, models[right].policy, models[left].ingress_packets, exact=True
        )
        for i, left in enumerate(SCHEMES)
        for right in SCHEMES[i + 1 :]
    }
    # One interpreter per model, created in its first pair, whose loops
    # were solved once: as many factorizations as one pass over the model.
    assert len(created) == len(models)
    for interpreter, model in zip(created, models.values()):
        once = Interpreter(exact=True)
        equivalence.output_distributions(model.policy, model.ingress_packets, interpreter=once)
        assert once.loop_stats()["factorizations"] > 0
        assert interpreter.loop_stats()["factorizations"] == once.loop_stats()["factorizations"]
