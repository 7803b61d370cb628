"""``fattree-sweep-cold`` — the paper's fig7: parameters to verified answers, cold.

Every repetition starts from topology parameters and a *fresh*
``MatrixBackend`` and ends with a delivery probability for every ingress
of every model in the sweep.  FDD compilation is nearly all of it, so
this is where compiler work shows and where assembly, solver or service
work must show nothing.
"""

from __future__ import annotations

import statistics
import time

from repro.backends import MatrixBackend
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.topology import edge_switches, fat_tree

from harness import Context, Measured, ast_oracle, delivered_mass, plan_counts, replay_loop_stages

FAILURE_PROBABILITY = 1 / 1000
#: (FatTree k, downward links fail independently).  k=8 with failures is
#: 9 s of compile alone, more than a whole run may take, so the sweep
#: keeps failures at k<=6 and grows without them (README, "cuts").
SWEEP = [(4, True), (6, True), (8, False), (10, False)]
SMOKE_SWEEP = [(4, True), (4, False)]
#: Above this k the oracle interprets a seeded sample, not every ingress.
ORACLE_FULL_UP_TO = 6
ORACLE_SAMPLE = 8


def build(k: int, failures: bool, dest: int):
    topology = fat_tree(k)
    failable = downward_failable_ports(topology) if failures else None
    failure = (
        independent_failure_program(failable, FAILURE_PROBABILITY) if failures else None
    )
    return build_model(
        topology,
        routing=ecmp_policy(topology, dest),
        dest=dest,
        failure=failure,
        failable=failable,
    )


def prepare(ctx: Context):
    """Seeded destinations, and the AST interpreter's answers for them."""
    configs, expected = [], {}
    for position, (k, failures) in enumerate(SMOKE_SWEEP if ctx.smoke else SWEEP):
        dest = ctx.rng.choice(edge_switches(fat_tree(k)))
        configs.append((k, failures, dest))
        model = build(k, failures, dest)
        packets = model.ingress_packets
        if k > ORACLE_FULL_UP_TO:
            packets = ctx.rng.sample(packets, ORACLE_SAMPLE)
        for packet, labelled in ast_oracle(model, packets).items():
            expected[position, packet] = delivered_mass(labelled, dest)
    return configs, ctx.tamper(expected)


def cold_rep(ctx: Context, configs):
    """One repetition: build every model and answer every ingress, from nothing.

    Returns the backend, the models, their answers, and seconds per model.
    """
    backend = MatrixBackend()
    models, answers, parts = [], [], []
    for k, failures, dest in configs:
        start = time.perf_counter()
        with ctx.span("model.build"):
            model = build(k, failures, dest)
        if ctx.rec is not None:
            # Traced run only: the one public call is split in two so the
            # compile has a span of its own; the query then finds the plan.
            with ctx.span("compiler.plan"):
                backend.plan(model.policy)
        with ctx.span("backend.query"):
            answers.append(backend.delivery_probabilities(model))
        parts.append(time.perf_counter() - start)
        models.append(model)
    return backend, models, answers, parts


def check(ctx: Context, answers, expected) -> int:
    """Compare one repetition with the oracle; return the answers it gave."""
    for (position, packet), want in expected.items():
        ctx.check_close(answers[position].get(packet), want)
    return sum(len(per_model) for per_model in answers)


def measure(ctx: Context) -> Measured:
    configs, expected = prepare(ctx)
    # The first repetition is set-up, not a sample: it alone pays the lazy
    # imports and process-wide memo tables, and with it ``setup_s`` is the
    # time from process start to the first verified answers.
    start = time.perf_counter()
    answers = cold_rep(ctx, configs)[2]
    ctx.setup_samples.append(time.perf_counter() - start)
    check(ctx, answers, expected)
    ctx.settle()
    units, answered = [], 0
    begin = time.perf_counter()
    while not units or time.perf_counter() - begin < ctx.seconds:
        answers, parts = cold_rep(ctx, configs)[2:]  # the backend dies here: nothing carries over
        units.append(parts)
        answered += check(ctx, answers, expected)
    return Measured(units, answered / len(units))


def trace(ctx: Context) -> dict[str, float]:
    configs, expected = prepare(ctx)
    ctx.settle()
    plain = []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < ctx.seconds / 2:
        backend = models = None  # as in the untraced run, no backend outlives its repetition
        with ctx.untraced():
            start = time.perf_counter()
            cold_rep(ctx, configs)
            plain.append(time.perf_counter() - start)
        with ctx.span("rep"):
            backend, models, answers, _parts = cold_rep(ctx, configs)
        check(ctx, answers, expected)
    reps = len(plain)
    for model in models:
        plan = backend.plan(model.policy)
        plan_counts(ctx, plan)
        replay_loop_stages(ctx, plan)
    rec = ctx.rec
    layers = {
        name + "_s": rec.total(name) / reps
        for name in ("model.build", "compiler.plan", "backend.query")
    }
    for name in ("fdd_matrix.assemble", "markov.factorize", "markov.solve"):
        layers[name + "_s"] = rec.total(name)
    layers["backend.decode_s"] = max(0.0, layers["backend.query_s"] - sum(
        layers[name] for name in ("fdd_matrix.assemble_s", "markov.factorize_s", "markov.solve_s")
    ))
    solver = backend.solver_stats()
    layers["markov.factorizations"] = solver["factorizations"]
    layers["markov.schur_updates"] = solver["schur_updates"]
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(rec.durations("rep")) / statistics.median(plain) - 1.0
    )
    layers["residual_share"] = rec.residual_share("rep")
    return layers
