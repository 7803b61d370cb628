"""Figure 7 — model construction on FatTree topologies, checked for answers.

The paper measures the time to construct the stochastic-matrix model of a
FatTree running ECMP, with and without link failures.  Those seconds and
the process's memory are ``bench/run.py --workload fattree-sweep-cold``;
this module asserts that every configuration of the sweep answers right
and that its compile work stays what it is:

* only core-to-aggregation links fail and ECMP crosses at most one of
  them, once, so delivery has a closed form (1 in the destination's pod,
  ``1 - p`` elsewhere), which the native interpreter meets at k=4, 6, 8
  and the matrix backend on its whole sweep: FatTree k=4…12 with and
  without failures, k=14 and k=16 with failures, and k=32 without
  (1 280 switches, 8 176 ingresses);
* the *compiled-body fast path* (loop bodies compiled once into
  per-switch FDDs, rows computed by diagram evaluation) and pure AST
  interpretation produce identical output distributions (to 1e-9);
* the vectorized single-pass assembly kernel and the two-pass
  ``Dist``-valued reference kernel (an oracle in ``tests/oracles.py``)
  produce identical matrices;
* the process's peak RSS after k=16 with failures stays under 1 GiB
  (``ru_maxrss`` is a high-water mark, so inside a full run it starts
  from whatever earlier tests left).

With failures, a core switch samples k independent flags; multiplied
out, they are a 2^k-leaf product per switch (k=12: 5 s and 360 MiB a
plan, k=16 out of reach).  The compiler does not multiply them out: each
flag is composed onto the routing/topology/reset product that tests and
then overwrites it before it meets the other flags, and one diagram is
compiled per switch *role* (seven per FatTree stage, at every k); the
plan keeps it per role, each switch a row of constants gathered into the
flat arrays, with no switch's diagram renamed or joined; the first hop
is not compiled again (the plan's loop stage is a do-while).

``compile_ops_k8_f1000`` (the ``restrict_eq`` + ``restrict_ne`` + ``ite``
memo entries), ``leaf_actions_composed_k8_f1000``, ``compile_roles_k8_f1000``
and ``role_instances_k8_f1000`` are one cold FatTree k=8-with-failures
plan's work, counted.  They repeat exactly and are pinned with ``==``; a
change that lowers one updates its pin.
"""

from __future__ import annotations

import resource
from functools import cache

import pytest

from repro.backends import MatrixBackend
from repro.core.fdd.matrix import fdd_to_matrix
from repro.core.interpreter import Interpreter
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.topology import fat_tree

from oracles import fdd_to_matrix_reference, matrices_identical

FAILURES = 1 / 1000
#: FatTree parameters swept by the native (interpreted) backend.
NATIVE_SIZES = [4, 6, 8]
#: ``(k, failure probability)`` swept by the matrix backend, cheapest
#: first, so the k=16 peak-RSS check sees little besides its own: the
#: native sizes, then k=10 and k=12, then k=14 and k=16 with failures
#: (320 switches, 16 flags per core switch), then k=32 without failures
#: (1 280 switches), where assembly and the solve dominate.
MATRIX_CONFIGS = (
    [(k, failures) for k in NATIVE_SIZES + [10, 12] for failures in (None, FAILURES)]
    + [(14, FAILURES), (16, FAILURES)]
    + [(32, None)]
)
#: The FDD operations whose memo-table sizes make up ``compile_ops_*``.
COMPILE_OPS = ("restrict_eq", "restrict_ne", "ite")
#: One cold FatTree k=8-with-failures plan's work: memo entries, actions
#: of the leaves ``sequence`` composed, runs compiled, diagrams renamed.
#: (Before roles and sampler-first: 2 888, 8 046, and 160 runs compiled;
#: before the do-while loop stage and the one-pass ingress predicate,
#: which compiled the first hop a second time: 1 410, 248, 14, 160;
#: before the plan stayed per role, with one diagram renamed and joined
#: per switch: 626, 81, 7, 80; before a local flag's write skipped the
#: diagrams that test no such field: 390, 81, 7, 0.)
K8_F1000_WORK = {
    "compile_ops_k8_f1000": 96,
    "leaf_actions_composed_k8_f1000": 81,
    "compile_roles_k8_f1000": 7,
    "role_instances_k8_f1000": 0,
}
#: The ceiling ROADMAP item 1 set for k=16 with failures, in MiB.
K16_RSS_CEILING_MB = 1024

#: The configurations each sweep answered, for the report below.
ANSWERED: dict[str, set[tuple[int, float | None]]] = {
    "native": set(),
    "compared": set(),
    "matrix": set(),
    "assembly": set(),
}


def build(p: int, failure_probability: float | None):
    topo = fat_tree(p)
    failable = downward_failable_ports(topo) if failure_probability else None
    failure = (
        independent_failure_program(failable, failure_probability)
        if failure_probability
        else None
    )
    return build_model(
        topo,
        routing=ecmp_policy(topo, 1),
        dest=1,
        failure=failure,
        failable=failable,
    )


@cache
def shared_interpreter() -> Interpreter:
    """One interpreter for the native sweep: loop caches persist across it."""
    return Interpreter()


@cache
def shared_backend() -> MatrixBackend:
    """One matrix backend for the matrix sweep, as a long-lived service holds."""
    return MatrixBackend()


def expected_delivery(model, failure_probability: float | None) -> dict:
    """The closed form: only core-to-aggregation links fail, and ECMP takes one.

    A packet entering in the destination's pod never climbs to the core;
    any other crosses exactly one failable link, once.
    """
    pod = lambda switch: model.topology.attributes(switch)["pod"]
    crossing = 1.0 - (failure_probability or 0.0)
    return {
        packet: 1.0 if pod(packet.get("sw")) == pod(model.dest) else crossing
        for packet in model.ingress_packets
    }


def assert_closed_form(model, outputs, failure_probability: float | None) -> None:
    expected = expected_delivery(model, failure_probability)
    assert outputs.keys() == expected.keys()
    for packet, want in expected.items():
        assert float(outputs[packet].prob_of(model.is_delivered)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_native_backend_scaling(p, failure_probability):
    model = build(p, failure_probability)
    outputs = model.output_distributions(interpreter=shared_interpreter())
    assert_closed_form(model, outputs, failure_probability)
    ANSWERED["native"].add((p, failure_probability))


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_interpreted_vs_compiled_construction(p, failure_probability):
    """One configuration, constructed both ways by fresh interpreters.

    Construction includes each path's full one-time work; the
    distributions must agree within 1e-9.
    """
    interpreted = build(p, failure_probability).output_distributions(
        interpreter=Interpreter(compile_bodies=False)
    )
    compiled = build(p, failure_probability).output_distributions(interpreter=Interpreter())
    assert compiled.keys() == interpreted.keys()
    for packet, dist in interpreted.items():
        fast = compiled[packet]
        for outcome in set(dist.support()) | set(fast.support()):
            assert float(fast(outcome)) == pytest.approx(float(dist(outcome)), abs=1e-9)
    ANSWERED["compared"].add((p, failure_probability))


@pytest.mark.parametrize(
    "p,failure_probability",
    MATRIX_CONFIGS,
    ids=[f"{k}-{'f1000' if failures else 'f0'}" for k, failures in MATRIX_CONFIGS],
)
def test_matrix_backend_scaling(p, failure_probability):
    model = build(p, failure_probability)
    outputs = shared_backend().output_distributions(model.policy, model.ingress_packets)
    assert_closed_form(model, outputs, failure_probability)
    if (p, failure_probability) == (16, FAILURES):
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_rss_mb < K16_RSS_CEILING_MB
    ANSWERED["matrix"].add((p, failure_probability))


def test_matrix_compile_work_count():
    """The compile's work, counted, on a fresh backend.

    Whole-program compilation made 1 497 939 memo entries, per-switch
    compilation 63 922, the location fields on top 2 888; one run per
    role with the samplers composed from the right makes 1 410, and
    composes 248 leaf actions where one run per switch composed 8 046 —
    every run.  The first hop compiled once, in the do-while loop stage,
    and the ingress predicate built in one pass make 626 and 81; the
    plan kept per role, no switch's diagram renamed or joined, makes 390
    and renames none; a write restricting only the diagrams that test
    its field makes 96.
    """
    with MatrixBackend() as backend:
        backend.plan(build(8, FAILURES).policy)
        work = backend.solver_stats()
    work["compile_ops"] = sum(work[f"fdd_memo_{name}"] for name in COMPILE_OPS)
    names = ("compile_ops", "leaf_actions_composed", "compile_roles", "role_instances")
    assert {f"{name}_k8_f1000": work[name] for name in names} == K8_F1000_WORK


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_assembly_kernel_comparison(p, failure_probability):
    """Every loop stage re-assembled by both kernels gives the same matrix.

    A warmed backend supplies each loop stage's compiled body FDD, shared
    domains and seed order (the BFS frontier of the batched all-ingress
    query); both kernels then assemble the stage from scratch.
    """
    model = build(p, failure_probability)
    with MatrixBackend() as backend:
        backend.output_distributions(model.policy, model.ingress_packets)
        stages = [s for s in backend.plan(model.policy).loop_stages if s.body_fdd is not None]
        assert stages
        for stage in stages:
            options = dict(
                extra_values=stage.domains,
                seeds=stage.seed_order,
                absorbing_when=lambda cls, stage=stage: not stage.guard_holds(cls),
            )
            matrix = fdd_to_matrix(stage.body_fdd, **options)
            assert matrix.assembled_rows > 0
            matrices_identical(matrix, fdd_to_matrix_reference(stage.body_fdd, **options))
    ANSWERED["assembly"].add((p, failure_probability))


NATIVE_CONFIGS = {(p, failures) for p in NATIVE_SIZES for failures in (None, FAILURES)}


def test_construction_seconds():
    """The two construction arms met on every native configuration.

    Their seconds are ``bench/``'s to measure: both arms share ``Dist``
    and the FDD operations, so a quotient of the two says nothing about
    either, and the sweep's cost is ``fattree-sweep-cold``.
    """
    assert ANSWERED["compared"] == NATIVE_CONFIGS


def test_assembly_seconds():
    """The two assembly kernels met on every native configuration (their
    seconds, like the construction arms', are not compared)."""
    assert ANSWERED["assembly"] == NATIVE_CONFIGS


def test_report_figure7():
    """Every configuration of the figure was answered by its sweep."""
    assert ANSWERED["native"] == NATIVE_CONFIGS
    assert ANSWERED["matrix"] == set(MATRIX_CONFIGS)
