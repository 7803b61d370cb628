"""Figure 7 — scalability of model construction on FatTree topologies.

The paper measures the time to construct the stochastic-matrix model of a
FatTree running ECMP, with and without link failures, using the native
backend and the PRISM backend.  This harness reproduces the native side
of the sweep at reduced sizes (Python constant factors) and reports
per-configuration times.  It has no PRISM column: without the PRISM
binary, a time would measure an engine written for this repo, not the
system (fig10 reports the state spaces instead).

What is asserted is equality of answers, never a ratio of two clocks:

* the *compiled-body fast path* (loop bodies compiled once into
  per-switch FDDs, rows computed by diagram evaluation) and pure AST
  interpretation produce identical output distributions (to 1e-9);
* the vectorized single-pass assembly kernel and the two-pass
  ``Dist``-valued reference kernel (an oracle in ``tests/oracles.py``)
  produce identical matrices.

Both arms' absolute seconds land in the ``phases`` of ``BENCH_fig7.json``
(``interpreted_construction_s`` / ``compiled_construction_s``,
``reference_assembly_s`` / ``vectorized_assembly_s``).  Their quotients
used to be gated as ``speedup`` and ``assembly_speedup``; they are not
measurements of the system — both arms share ``Dist`` and the FDD
operations, so making that shared code faster *lowers* the quotient —
and were retired with the change that did so.

The matrix backend sweeps further, reporting its one-time FDD
compilation separately from the batched all-ingress query, plus the
process's peak RSS after each configuration (memory is the paper's other
axis): FatTree k=4…12 with and without failures, k=14 and k=16 with
failures, and k=32 without (1 280 switches, 8 176 ingresses).  Sizes are
fixed; ``REPRO_SCALE`` does not change them.  Every configuration's
answers are asserted against the closed form (below); ``peak_rss_mb`` is
``ru_maxrss``, the process's high-water mark, so it is monotone along
the sweep and, inside a full tier-1 run, starts from whatever the
earlier tests left — the k=16-with-failures configuration asserts it
under 1 GiB all the same; run this module alone for a clean curve.

With failures, a core switch samples k independent flags; multiplied
out, they are a 2^k-leaf product per switch (k=12: 5 s and 360 MiB a
plan, k=16 out of reach).  The compiler does not multiply them out: each
flag is composed onto the routing/topology/reset product that tests and
then overwrites it before it meets the other flags, and one diagram is
compiled per switch *role* (seven per FatTree stage, at every k); the
plan keeps it per role, each switch a row of constants gathered into the
flat arrays, with no switch's diagram renamed or joined; the first hop
is not compiled again (the plan's loop stage is a do-while).  k=32 with
failures plans in 0.6 s and answers its 8 176 ingresses in 0.9 s at
179 MiB, measured by hand (2-core box), not swept.

``compile_ops_k8_f1000`` (the ``restrict_eq`` + ``restrict_ne`` + ``ite``
memo entries), ``leaf_actions_composed_k8_f1000``, ``compile_roles_k8_f1000``
and ``role_instances_k8_f1000`` are one cold FatTree k=8-with-failures
plan's work, counted.  They repeat exactly and are asserted equal to
their pinned values; the first is also gated by CI as a lower-is-better
metric.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro.core.interpreter import Interpreter
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.topology import fat_tree

from bench_utils import print_table, record, shared_backend, shared_interpreter

FAILURES = 1 / 1000
#: FatTree parameters swept by the native (interpreted) backend.
NATIVE_SIZES = [4, 6, 8]
#: ``(k, failure probability)`` swept by the matrix backend, cheapest
#: first so ``peak_rss_mb`` (a high-water mark) tracks the curve: the
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
    "compile_ops": 96,
    "leaf_actions_composed": 81,
    "compile_roles": 7,
    "role_instances": 0,
}
#: The ceiling ROADMAP item 1 set for k=16 with failures, in MiB.
K16_RSS_CEILING_MB = 1024
#: Timed repetitions per loop stage of the assembly-kernel comparison.
ASSEMBLY_REPS = 10

TITLE = "Figure 7 — model construction time (native vs matrix, with/without failures)"
HEADER = ["backend", "p", "switches", "pr(fail)", "time", "compile/interp-compiled", "query/speedup"]
RESULTS: list[list[object]] = []
#: Per-configuration absolute matrix-backend seconds, keyed for ``phases``.
MATRIX_PHASES: dict[str, float] = {}
#: Accumulated wall-clock totals of the interpreted and compiled construction arms.
CONSTRUCTION_TOTALS = {"interpreted": 0.0, "compiled": 0.0}
#: Accumulated wall-clock totals of the assembly-kernel comparison.
ASSEMBLY_TOTALS = {"vectorized": 0.0, "reference": 0.0, "rows": 0}


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


def fail_label(failure_probability: float | None) -> str:
    return "0" if failure_probability is None else "1/1000"


def native_construct(p: int, failure_probability: float | None):
    model = build(p, failure_probability)
    interpreter = shared_interpreter("fig7")
    return model.output_distributions(interpreter=interpreter)


def matrix_construct(p: int, failure_probability: float | None):
    """The model, its all-ingress answers, and this configuration's own phase seconds.

    The sweep shares one backend, whose stopwatch accumulates: the
    configuration's cost is the difference across the call.
    """
    model = build(p, failure_probability)
    backend = shared_backend("fig7", "matrix")
    before = backend.timings()
    outputs = backend.output_distributions(model.policy, model.ingress_packets)
    timings = {
        phase: seconds - before.get(phase, 0.0)
        for phase, seconds in backend.timings().items()
    }
    return model, outputs, timings


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


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_native_backend_scaling(benchmark, p, failure_probability):
    start = time.perf_counter()
    outputs = benchmark.pedantic(native_construct, args=(p, failure_probability), rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    switches = 5 * p * p // 4
    RESULTS.append(["native", p, switches, fail_label(failure_probability), f"{elapsed:.2f}s", "-", "-"])
    assert len(outputs) > 0


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_interpreted_vs_compiled_construction(benchmark, p, failure_probability):
    """One configuration, constructed both ways.

    Fresh interpreters on both sides (construction must include each
    path's full one-time work); distributions must agree within 1e-9.
    """

    def construct():
        model = build(p, failure_probability)
        t0 = time.perf_counter()
        interpreted = model.output_distributions(
            interpreter=Interpreter(compile_bodies=False)
        )
        interpreted_s = time.perf_counter() - t0

        model = build(p, failure_probability)
        t0 = time.perf_counter()
        compiled = model.output_distributions(interpreter=Interpreter())
        compiled_s = time.perf_counter() - t0
        return interpreted, compiled, interpreted_s, compiled_s

    interpreted, compiled, interpreted_s, compiled_s = benchmark.pedantic(
        construct, rounds=1, iterations=1
    )
    CONSTRUCTION_TOTALS["interpreted"] += interpreted_s
    CONSTRUCTION_TOTALS["compiled"] += compiled_s
    switches = 5 * p * p // 4
    ratio = interpreted_s / compiled_s if compiled_s else float("inf")
    RESULTS.append([
        "native/interp", p, switches, fail_label(failure_probability),
        f"{interpreted_s:.2f}s", f"{compiled_s:.2f}s", f"{ratio:.2f}x",
    ])
    for packet, dist in interpreted.items():
        fast = compiled[packet]
        for outcome in set(dist.support()) | set(fast.support()):
            assert float(fast(outcome)) == pytest.approx(float(dist(outcome)), abs=1e-9)


@pytest.mark.parametrize(
    "p,failure_probability",
    MATRIX_CONFIGS,
    ids=[f"{k}-{'f1000' if failures else 'f0'}" for k, failures in MATRIX_CONFIGS],
)
def test_matrix_backend_scaling(benchmark, p, failure_probability):
    start = time.perf_counter()
    model, outputs, timings = benchmark.pedantic(
        matrix_construct, args=(p, failure_probability), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start
    switches = 5 * p * p // 4
    compile_s = timings.get("compile", 0.0)
    # "query" is end-to-end query time; "assemble"/"factorize"/"solve" are
    # sub-phases nested inside it.
    query_s = timings.get("query", 0.0)
    label = f"matrix_k{p}_f{'1000' if failure_probability else '0'}"
    MATRIX_PHASES[f"{label}_compile_s"] = compile_s
    MATRIX_PHASES[f"{label}_query_s"] = query_s
    # What is left of a query once the three kernels are taken out: FDD
    # stages, class → packet decoding, the per-ingress merge.  Recorded, not gated.
    MATRIX_PHASES[f"{label}_decode_s"] = query_s - sum(
        timings.get(kernel, 0.0) for kernel in ("assemble", "factorize", "solve")
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    MATRIX_PHASES[f"{label}_peak_rss_mb"] = peak_rss_mb
    RESULTS.append(
        [
            "matrix",
            p,
            switches,
            fail_label(failure_probability),
            f"{elapsed:.2f}s",
            f"{compile_s:.2f}s",
            f"{query_s:.2f}s",
        ]
    )
    expected = expected_delivery(model, failure_probability)
    assert outputs.keys() == expected.keys()
    for packet, want in expected.items():
        assert float(outputs[packet].prob_of(model.is_delivered)) == pytest.approx(want, abs=1e-9)
    if (p, failure_probability) == (16, FAILURES):
        assert peak_rss_mb < K16_RSS_CEILING_MB


def test_matrix_compile_work_count(benchmark):
    """The compile's work, counted: what CI can gate without a clock.

    One cold FatTree k=8-with-failures plan on a fresh backend (the
    shared one would carry the sweep's memo tables).  Whole-program
    compilation made 1 497 939 memo entries, per-switch compilation
    63 922, the location fields on top 2 888; one run per role with the
    samplers composed from the right makes 1 410, and composes 248 leaf
    actions where one run per switch composed 8 046 — every run.  The
    first hop compiled once, in the do-while loop stage, and the ingress
    predicate built in one pass make 626 and 81; the plan kept per role,
    no switch's diagram renamed or joined, makes 390 and renames none;
    a write restricting only the diagrams that test its field makes 96.
    """
    from repro.backends import MatrixBackend

    def plan_cold() -> dict[str, int]:
        with MatrixBackend() as backend:
            backend.plan(build(8, FAILURES).policy)
            work = backend.solver_stats()
            work["compile_ops"] = sum(work[f"fdd_memo_{name}"] for name in COMPILE_OPS)
            return {name: work[name] for name in K8_F1000_WORK}

    work = benchmark.pedantic(plan_cold, rounds=1, iterations=1)
    record(
        "fig7",
        TITLE,
        HEADER,
        RESULTS,
        phases=MATRIX_PHASES,
        metrics={f"{name}_k8_f1000": float(count) for name, count in work.items()},
    )
    assert work == K8_F1000_WORK


def assembly_compare(p: int, failure_probability: float | None):
    """Time cold assemblies of every loop stage through both kernels.

    A warmed backend supplies each loop stage's compiled body FDD, shared
    domains and seed order (the BFS frontier of the batched all-ingress
    query); both kernels then re-assemble every stage from scratch — no
    row cache, so each repetition pays the full exploration + row
    materialization cost the vectorized single pass is meant to collapse.
    """
    from oracles import fdd_to_matrix_reference, matrices_identical

    from repro.backends import MatrixBackend
    from repro.core.fdd.matrix import fdd_to_matrix

    model = build(p, failure_probability)
    with MatrixBackend() as backend:
        backend.output_distributions(model.policy, model.ingress_packets)
        vectorized_s = reference_s = 0.0
        rows = 0
        for stage in backend.plan(model.policy).loop_stages:
            if stage.body_fdd is None:
                continue

            def absorbing(cls, stage=stage):
                return not stage.guard_holds(cls)

            for _ in range(ASSEMBLY_REPS):
                t0 = time.perf_counter()
                matrix = fdd_to_matrix(
                    stage.body_fdd,
                    extra_values=stage.domains,
                    seeds=stage.seed_order,
                    absorbing_when=absorbing,
                )
                vectorized_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                reference = fdd_to_matrix_reference(
                    stage.body_fdd,
                    extra_values=stage.domains,
                    seeds=stage.seed_order,
                    absorbing_when=absorbing,
                )
                reference_s += time.perf_counter() - t0
            matrices_identical(matrix, reference)
            rows += matrix.assembled_rows
        return vectorized_s, reference_s, rows


@pytest.mark.parametrize("p", NATIVE_SIZES)
@pytest.mark.parametrize("failure_probability", [None, FAILURES], ids=["f0", "f1000"])
def test_assembly_kernel_comparison(benchmark, p, failure_probability):
    """One configuration of the assembly-kernel comparison."""
    vectorized_s, reference_s, rows = benchmark.pedantic(
        assembly_compare, args=(p, failure_probability), rounds=1, iterations=1
    )
    ASSEMBLY_TOTALS["vectorized"] += vectorized_s
    ASSEMBLY_TOTALS["reference"] += reference_s
    ASSEMBLY_TOTALS["rows"] += rows
    switches = 5 * p * p // 4
    ratio = reference_s / vectorized_s if vectorized_s else float("inf")
    RESULTS.append([
        "matrix/assembly", p, switches, fail_label(failure_probability),
        f"{reference_s:.3f}s", f"{vectorized_s:.3f}s", f"{ratio:.2f}x",
    ])
    assert rows > 0


def test_construction_seconds(benchmark):
    """Both construction arms' absolute seconds, summed over the sweep.

    Recorded, not compared: the arms share ``Dist`` and the FDD
    operations, so their quotient says nothing about either.  That they
    compute the same distributions is asserted per configuration above.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert CONSTRUCTION_TOTALS["compiled"] > 0.0, "comparison sweep did not run"
    record(
        "fig7",
        TITLE,
        HEADER,
        RESULTS,
        phases={
            "interpreted_construction_s": CONSTRUCTION_TOTALS["interpreted"],
            "compiled_construction_s": CONSTRUCTION_TOTALS["compiled"],
        },
    )


def test_assembly_seconds(benchmark):
    """Both assembly kernels' absolute seconds, summed over the sweep.

    Recorded, not compared (see :func:`test_construction_seconds`); that
    they assemble identical matrices is asserted per loop stage above.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ASSEMBLY_TOTALS["vectorized"] > 0.0, "assembly comparison sweep did not run"
    record(
        "fig7",
        TITLE,
        HEADER,
        RESULTS,
        phases={
            "reference_assembly_s": ASSEMBLY_TOTALS["reference"],
            "vectorized_assembly_s": ASSEMBLY_TOTALS["vectorized"],
        },
        metrics={"assembly_rows": float(ASSEMBLY_TOTALS["rows"])},
    )


def test_report_figure7(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        TITLE,
        HEADER,
        RESULTS,
        fig="fig7",
    )
    assert RESULTS
