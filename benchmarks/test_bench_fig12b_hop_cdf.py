"""Figure 12(b) — fraction of traffic delivered within a hop budget.

With the per-link failure probability fixed at 1/4, reports the CDF of
hop counts for the three F10 schemes on the AB FatTree and for
``F10_3,5`` on a standard FatTree.  Expected shape: all schemes deliver
the same ~79% of traffic within 4 hops; the rerouting schemes deliver
substantially more within 6 hops on the AB FatTree, while the standard
FatTree needs 8 hops for the same recovery (its detours are longer).
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import hop_count_cdf
from repro.backends import MatrixBackend
from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

from bench_utils import print_table, record, shared_interpreter

FAILURE_PROBABILITY = 1 / 4
HOPS = [2, 4, 6, 8, 10, 12]
SERIES = [
    ("AB FatTree, F10_0", "ab", "f10_0"),
    ("AB FatTree, F10_3", "ab", "f10_3"),
    ("AB FatTree, F10_3,5", "ab", "f10_3_5"),
    ("FatTree, F10_3,5", "ft", "f10_3_5"),
]

RESULTS: dict[str, dict[int, float]] = {}


def build_model(topology, scheme):
    return f10_model(
        topology, 1, scheme=scheme, failure_probability=FAILURE_PROBABILITY,
        count_hops=True, max_hops=14,
    )


def compute_cdf(topology, scheme):
    # One interpreter across the whole figure: loop caches and compiled
    # bodies persist over the scheme sweep (disable with --cold).
    return hop_count_cdf(
        build_model(topology, scheme),
        max_hops=max(HOPS),
        interpreter=shared_interpreter("fig12b"),
    )


@pytest.mark.parametrize("label,topo_kind,scheme", SERIES, ids=[s[0] for s in SERIES])
def test_hop_count_cdf(benchmark, label, topo_kind, scheme):
    topology = ab_fat_tree(4) if topo_kind == "ab" else fat_tree(4)
    cdf = benchmark.pedantic(compute_cdf, args=(topology, scheme), rounds=1, iterations=1)
    RESULTS[label] = cdf
    values = [cdf[h] for h in sorted(cdf)]
    assert values == sorted(values)


def test_matrix_backend_batched_query(benchmark):
    """The tentpole claim: one factorization + batched RHS beats per-packet runs.

    The same all-ingress hop-CDF query is answered by per-packet AST
    interpretation (which re-walks the loop body for every reachable
    state), by the compiled-body native path, and by the matrix backend
    (compile once, factorize ``I - Q`` once, batched multi-RHS solve).
    The seconds of each arm and their ratio are recorded, not asserted;
    all three distributions must agree within 1e-9.
    """
    from repro.core.interpreter import Interpreter

    model = build_model(ab_fat_tree(4), "f10_3_5")

    start = time.perf_counter()
    native_cdf = benchmark.pedantic(
        lambda: hop_count_cdf(
            model, max_hops=max(HOPS), interpreter=Interpreter(compile_bodies=False)
        ),
        rounds=1, iterations=1,
    )
    native_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled_cdf = hop_count_cdf(
        model, max_hops=max(HOPS), interpreter=Interpreter()
    )
    compiled_s = time.perf_counter() - start

    # Two fresh backends, best-of-2, to keep the timing assert robust
    # against scheduler noise on small absolute times.
    cold_runs = []
    for _ in range(2):
        backend = MatrixBackend()
        start = time.perf_counter()
        matrix_cdf = hop_count_cdf(model, max_hops=max(HOPS), backend=backend)
        cold_runs.append((time.perf_counter() - start, backend))
    cold_s, backend = min(cold_runs, key=lambda run: run[0])
    compile_s = backend.timings().get("compile", 0.0)
    # "query" is the end-to-end query phase (its "assemble"/"factorize"/
    # "solve" sub-phases are nested inside it, so they must not be summed
    # on top).
    query_s = min(
        candidate.timings().get("query", 0.0) for _, candidate in cold_runs
    )

    start = time.perf_counter()
    warm_cdf = hop_count_cdf(model, max_hops=max(HOPS), backend=backend)
    warm_s = time.perf_counter() - start
    speedup = native_s / query_s if query_s else float("inf")
    loop_states = sum(
        int(stage.chain.transient.sum()) for stage in backend.plan(model.policy).loop_stages
    )
    record(
        "fig12b",
        "Figure 12(b) — matrix backend batched all-ingress hop-CDF query",
        ["metric", "value"],
        [
            ["ingresses", len(model.ingress_packets)],
            ["loop_states", loop_states],
            ["interpreted_query_s", round(native_s, 4)],
            ["compiled_native_query_s", round(compiled_s, 4)],
            ["matrix_compile_s", round(compile_s, 4)],
            ["matrix_query_s", round(query_s, 4)],
            ["matrix_assemble_s", round(backend.timings().get("assemble", 0.0), 4)],
            ["matrix_factorize_s", round(backend.timings().get("factorize", 0.0), 4)],
            ["matrix_solve_s", round(backend.timings().get("solve", 0.0), 4)],
            ["matrix_cold_total_s", round(cold_s, 4)],
            ["matrix_warm_query_s", round(warm_s, 4)],
            ["query_speedup", round(speedup, 2)],
        ],
        phases={
            "interpreted_query_s": native_s,
            "compiled_native_query_s": compiled_s,
            "matrix_compile_s": compile_s,
            "matrix_query_s": query_s,
            "matrix_warm_query_s": warm_s,
        },
    )
    for h in range(0, max(HOPS) + 1):
        assert compiled_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)
        assert matrix_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)
        assert warm_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)


def test_report_figure12b(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [label] + [f"{cdf[h]:.3f}" for h in HOPS] for label, cdf in RESULTS.items()
    ]
    print_table(
        "Figure 12(b) — P[delivered within ≤ h hops] at pr = 1/4",
        ["scheme"] + [f"h={h}" for h in HOPS],
        rows,
        fig="fig12b_cdf",
    )
    ab = RESULTS["AB FatTree, F10_3,5"]
    ft = RESULTS["FatTree, F10_3,5"]
    base = RESULTS["AB FatTree, F10_0"]
    assert ab[4] == pytest.approx(base[4], abs=1e-9)
    assert ab[6] > base[4]          # 3-hop detours recover traffic at 6 hops
    assert ft[6] == pytest.approx(ft[4], abs=1e-9)  # FatTree needs 8 hops instead
    assert ft[8] > ft[6]
