"""``f10-batch-serial`` — compile once, sweep many queries.

AB FatTree, scheme F10_3, at most three failures: the repo's solver-bound
batch.  Plans are compiled and one pass is solved in set-up; every timed
pass then re-runs spec lookup -> assembly -> factorize -> solve -> decode
(``clear_cache(keep_plans=True)`` between passes) and never recompiles.
The end-to-end run uses the default in-process session; the traced run
also sends the same batch through worker processes, as one more layer
replayed on the same inputs: the paper's fig8 on the cores present.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from fractions import Fraction

from repro.backends import MatrixBackend
from repro.routing import f10_model
from repro.service import AnalysisSession, Query
from repro.service.transport import decode_message, encode_message
from repro.service.wire import QuerySpec, ResultSpec
from repro.topology import ab_fat_tree, edge_switches

from harness import Context, Measured, ast_oracle, delivered_mass, plan_counts, replay_loop_stages

SCHEME = "f10_3"
FAILURE_PROBABILITY = Fraction(1, 1000)
MAX_FAILURES = 3
#: Four destinations cost 5.3 s of set-up, and set-up runs three times in
#: a run; two keep a run inside the driver's budget (README, "cuts").
DESTINATIONS = 2
#: Queries the AST interpreter answers too (0.4 s each at k=6).
ORACLE_SAMPLE = 8
#: Passes of each reference (backend-only, pooled) in the traced run.
REFERENCE_PASSES = 5
#: One replica per destination shard at most; fewer on a smaller box.
POOL_WORKERS = min(os.cpu_count() or 1, DESTINATIONS)


def inputs(ctx: Context):
    """Seeded destinations and query order; the models are built in set-up."""
    topology = ab_fat_tree(4 if ctx.smoke else 6)
    dests = ctx.rng.sample(edge_switches(topology), DESTINATIONS)
    order_seed = ctx.rng.random()
    return topology, dests, order_seed


def build_models(ctx: Context, topology, dests):
    with ctx.span("model.build"):
        return {
            dest: f10_model(
                topology, dest, scheme=SCHEME,
                failure_probability=FAILURE_PROBABILITY, max_failures=MAX_FAILURES,
            )
            for dest in dests
        }


def build_batch(models, order_seed) -> list[Query]:
    batch = [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]
    random.Random(order_seed).shuffle(batch)
    return batch


def open_session(models, batch, **options) -> AnalysisSession:
    """A session with every plan compiled and one pass solved, caches cleared."""
    session = AnalysisSession(models=models.values(), **options)
    for dest in models:
        session.warm(dest, solve=False)
    session.query_batch(batch)
    session.clear_cache(keep_plans=True)
    return session


def oracle(ctx: Context, models, batch) -> dict[int, float]:
    sample = ctx.rng.sample(range(len(batch)), 6 if ctx.smoke else ORACLE_SAMPLE)
    expected = {}
    for index in sample:
        query = batch[index]
        labelled = ast_oracle(models[query.dest], [query.ingress])[query.ingress]
        expected[index] = delivered_mass(labelled, query.dest)
    return ctx.tamper(expected)


def timed_pass(ctx: Context, session, batch, expected) -> tuple[float, object]:
    """One miss-path pass, checked; solver state is dropped again afterwards."""
    start = time.perf_counter()
    with ctx.span("pass"):
        with ctx.span("session.pass"):
            result = session.query_batch(batch)
    seconds = time.perf_counter() - start
    session.clear_cache(keep_plans=True)
    ctx.check(len(result) == len(batch) and result.cache_hits == 0)
    for index, want in expected.items():
        ctx.check_close(result[index].value, want)
    return seconds, result


def measure(ctx: Context) -> Measured:
    topology, dests, order_seed = inputs(ctx)
    expected = None

    def build():
        models = build_models(ctx, topology, dests)
        batch = build_batch(models, order_seed)
        return models, batch, open_session(models, batch)

    units = []
    for _ in range(ctx.setup_reps):
        with ctx.fresh(build, teardown=lambda state: state[2].close()) as (models, batch, session):
            if expected is None:
                expected = oracle(ctx, models, batch)
            ctx.settle()
            begin = time.perf_counter()
            while True:
                units.append([timed_pass(ctx, session, batch, expected)[0]])
                if time.perf_counter() - begin >= ctx.segment_seconds:
                    break
    return Measured(units, len(batch))


# -- traced runs --------------------------------------------------------------------

def compiled(ctx: Context):
    """Models, batch, oracle, and one planner backend holding every plan."""
    topology, dests, order_seed = inputs(ctx)
    models = build_models(ctx, topology, dests)
    batch = build_batch(models, order_seed)
    planner = MatrixBackend()
    with ctx.span("compiler.plan"):
        for model in models.values():
            planner.plan(model.policy)
    return models, batch, oracle(ctx, models, batch), planner


def alternating_passes(ctx: Context, session, batch, expected, seconds: float):
    """Untraced and traced passes in turn; returns both medians and the last result."""
    plain, traced = [], []
    begin = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - begin < seconds:
        with ctx.untraced():
            plain.append(timed_pass(ctx, session, batch, expected)[0])
        seconds_traced, result = timed_pass(ctx, session, batch, expected)
        traced.append(seconds_traced)
    return statistics.median(plain), statistics.median(traced), result


def reference_passes(ctx: Context, span: str, models, batch, expected, **options):
    """A reference session opened under ``span``, then untraced passes of it.

    Returns the median pass and the last result; the session is closed again.
    """
    with ctx.span(span):
        session = open_session(models, batch, **options)
    try:
        with ctx.untraced():
            passes = [
                timed_pass(ctx, session, batch, expected) for _ in range(REFERENCE_PASSES)
            ]
    finally:
        session.close()
    return statistics.median(seconds for seconds, _result in passes), passes[-1][1]


def overlap_share(shards) -> float:
    """Share of summed shard time that ran while another shard also ran."""
    total = sum(shard.finished - shard.started for shard in shards)
    union, cursor = 0.0, float("-inf")
    for shard in sorted(shards, key=lambda shard: shard.started):
        start = max(shard.started, cursor)
        if shard.finished > start:
            union += shard.finished - start
            cursor = shard.finished
    return 1.0 - union / total if total else 0.0


def pool_layers(ctx: Context, models, batch, expected, planner, serial: float) -> dict[str, float]:
    """The same batch through worker processes, replayed as a layer of its own.

    What spec shipping, pickled frames and leases add to a pass whose
    untraced serial time in this same run is ``serial``: the paper's fig8
    on the cores present.
    """
    one_worker, _result = reference_passes(
        ctx, "procpool.spawn.one", models, batch, expected,
        backend=planner, pool_mode="process", pool_size=1,
    )
    pooled, result = reference_passes(
        ctx, "procpool.spawn", models, batch, expected,
        backend=planner, pool_mode="process", pool_size=POOL_WORKERS, workers=POOL_WORKERS,
    )
    layers = {
        "procpool.spawn_s": ctx.rec.total("procpool.spawn"),
        "procpool.ipc_s": one_worker - serial,
        # Base: the serial session's pass in this same run, on min(workers, cores).
        "procpool.parallel_efficiency": (serial / pooled) / min(
            POOL_WORKERS, os.cpu_count() or 1
        ),
        "pool.shards": len(result.shards),
        "pool.shard_s_max": max(shard.seconds for shard in result.shards),
        "pool.overlap_share": overlap_share(result.shards),
    }
    # One real shard's request and reply through the frame codec.
    dest, model = next(iter(models.items()))
    packets = [query.ingress for query in batch if query.dest == dest]
    request = QuerySpec.distributions(0, packets)
    reply = ResultSpec.from_distributions(0, planner.output_distributions(model.policy, packets))
    frames = [encode_message(request), encode_message(reply)]
    for _ in range(20):
        with ctx.span("wire.frame_roundtrip"):
            for message in (request, reply):
                decode_message(encode_message(message))
    layers["wire.frame_roundtrip_us"] = 1e6 * statistics.median(
        ctx.rec.durations("wire.frame_roundtrip")
    )
    layers["wire.bytes_per_query"] = sum(len(frame) for frame in frames) / len(packets)
    return layers


def trace(ctx: Context) -> dict[str, float]:
    models, batch, expected, planner = compiled(ctx)
    session = open_session(models, batch, backend=planner)
    try:
        ctx.settle()
        plain, traced, result = alternating_passes(ctx, session, batch, expected, ctx.seconds / 3)
    finally:
        session.close()
    rec = ctx.rec
    layers = {
        "model.build_s": rec.total("model.build"),
        "compiler.plan_s": rec.total("compiler.plan"),
        "session.pass_s": traced,
        "session.cache_hit_share": result.cache_hits / len(batch),
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
        "residual_share": rec.residual_share("pass"),
    }
    # The same batch straight into the backend the session used, solver
    # state dropped first: what the pass costs without the session.
    by_dest = {
        dest: [query.ingress for query in batch if query.dest == dest] for dest in models
    }
    for _ in range(REFERENCE_PASSES):
        planner.reset_solutions()
        with ctx.span("backend.query"):
            for dest, packets in by_dest.items():
                planner.output_distributions(models[dest].policy, packets)
    solver = planner.solver_stats()
    for model in models.values():
        plan = planner.plan(model.policy)
        plan_counts(ctx, plan)
        replay_loop_stages(ctx, plan)
    query = statistics.median(rec.durations("backend.query"))
    kernels = {
        name + "_s": rec.total(name)
        for name in ("fdd_matrix.assemble", "markov.factorize", "markov.solve")
    }
    layers.update(kernels)
    layers["backend.query_s"] = query
    layers["backend.decode_s"] = max(0.0, query - sum(kernels.values()))
    layers["session.overhead_s"] = traced - query
    layers["markov.factorizations"] = solver["factorizations"]
    layers["markov.schur_updates"] = solver["schur_updates"]
    layers.update(pool_layers(ctx, models, batch, expected, planner, plain))
    return layers
