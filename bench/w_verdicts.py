"""``f10-verdicts-exact`` — the paper's headline property: equivalence and refinement.

Each repetition computes, from scratch, the fig11b k-resilience table
(structural certainty) and the fig11c refinement table (exact rationals)
on the AB FatTree p=4.  It runs on layers the matrix workloads never touch
(``core.interpreter``, ``core.equivalence``, exact elimination in
``core.markov``), so a float-path gain bought at the exact path's expense
shows here.  The oracle is the paper's published tables, transcribed by
hand into ``expected/``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from fractions import Fraction

from repro.analysis.resilience import refinement_table, resilience_table
from repro.backends import MatrixBackend
from repro.core.markov import solve_absorption_exact
from repro.routing import f10_model
from repro.topology import ab_fat_tree

from harness import Context, Measured, absorbing_chain

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
FAILURE_PROBABILITY = Fraction(1, 4)
DESTINATION = 1
#: The refinement column k=4 alone is 2.4 s of a 5.8 s repetition; without
#: it three repetitions fit a run.  The fact it pins (F10_3,5 is not
#: 4-resilient) stays checked by the resilience table (README, "cuts").
REFINEMENT_BOUNDS = (0, 1, 2, 3)
SMOKE_BOUNDS = (0, 1)
#: Refinement instance whose loop is replayed through the exact solver.
REPLAY = ("f10_3_5", 3)


def load(name: str) -> dict:
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as handle:
        return json.load(handle)


def inputs(ctx: Context):
    """The published cells this run computes, in a seeded order."""
    fig_b, fig_c = load("fig11b.json"), load("fig11c.json")
    refinement_bounds = SMOKE_BOUNDS if ctx.smoke else REFINEMENT_BOUNDS
    expected = {}
    for scheme in fig_b["schemes"]:
        for k, want in zip(fig_b["bounds"], fig_b["resilient"][scheme]):
            if not ctx.smoke or k in SMOKE_BOUNDS:
                expected["resilient", scheme, k] = want
    for left, right in fig_c["pairs"]:
        for k, want in zip(fig_c["bounds"], fig_c["relation"][f"{left} vs {right}"]):
            if k in refinement_bounds:
                expected["relation", (left, right), k] = "≡" if want == "=" else want
    cells = ctx.rng.sample(sorted(expected, key=repr), len(expected))
    return cells, ctx.tamper(expected)


def model(topology, scheme: str, k):
    return f10_model(
        topology, DESTINATION, scheme=scheme,
        failure_probability=FAILURE_PROBABILITY, max_failures=k,
    )


def tables(ctx: Context, cells) -> tuple[dict, list[float]]:
    """One repetition: every cell of both tables from topology parameters.

    The public table functions are called one cell at a time, which costs
    nothing (cells share no state) and gives every cell a time of its own.
    """
    topology = ab_fat_tree(4)

    def factory(scheme, k):
        with ctx.span("model.build"):
            return model(topology, scheme, k)

    verdicts, parts = {}, []
    for table, subject, k in cells:
        start = time.perf_counter()
        if table == "resilient":
            with ctx.span("interpreter.certainty"):
                verdict = resilience_table(factory, [subject], [k])[subject][k]
        else:
            with ctx.span("equivalence.compare"):
                verdict = refinement_table(factory, [subject], [k], exact=True)[subject][k]
        parts.append(time.perf_counter() - start)
        verdicts[table, subject, k] = verdict
    return verdicts, parts


def check(ctx: Context, verdicts: dict, expected: dict) -> int:
    return sum(ctx.check(verdicts.get(key) == want) for key, want in expected.items())


def measure(ctx: Context) -> Measured:
    cells, expected = inputs(ctx)
    # The first repetition is set-up, not a sample: it alone pays the lazy
    # imports and process-wide memo tables, and with it ``setup_s`` is the
    # time from process start to the first verified tables.
    start = time.perf_counter()
    verdicts = tables(ctx, cells)[0]
    ctx.setup_samples.append(time.perf_counter() - start)
    check(ctx, verdicts, expected)
    ctx.settle()
    units, answered = [], 0
    begin = time.perf_counter()
    while not units or time.perf_counter() - begin < ctx.seconds:
        verdicts, parts = tables(ctx, cells)
        units.append(parts)
        answered += check(ctx, verdicts, expected)
    return Measured(units, answered / len(units))


def exact_replay(ctx: Context) -> None:
    """The loop of one refinement instance through exact Gaussian elimination."""
    scheme, k = ("f10_3_5", 1) if ctx.smoke else REPLAY
    instance = model(ab_fat_tree(4), scheme, k)
    backend = MatrixBackend()
    backend.output_distributions(instance.policy, instance.ingress_packets)
    for stage in backend.plan(instance.policy).loop_stages:
        matrix = stage.matrix
        transient, absorbing = absorbing_chain(stage, matrix)
        # Link failures are multiples of 1/4, so the floats are exact rationals.
        transitions = {
            cls: {
                successor: Fraction(prob).limit_denominator(1 << 20)
                for successor, prob in matrix.row(cls).items()
            }
            for cls in transient
        }
        with ctx.span("markov.exact_solve"):
            solved = solve_absorption_exact(transient, absorbing, transitions)
        # Exact arithmetic: every row's absorbed and lost mass sums to one, exactly.
        ctx.check(
            all(sum(row.values()) + solved.lost_mass[cls] == 1 for cls, row in solved.items())
        )


def trace(ctx: Context) -> dict[str, float]:
    cells, expected = inputs(ctx)
    ctx.settle()
    plain = []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < ctx.seconds / 2:
        with ctx.untraced():
            plain.append(sum(tables(ctx, cells)[1]))
        with ctx.span("rep"):
            verdicts = tables(ctx, cells)[0]
        check(ctx, verdicts, expected)
    exact_replay(ctx)
    rec = ctx.rec
    layers = {
        name + "_s": rec.self_total(name) / len(plain)
        for name in ("model.build", "interpreter.certainty", "equivalence.compare")
    }
    layers["markov.exact_solve_s"] = rec.total("markov.exact_solve")
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(rec.durations("rep")) / statistics.median(plain) - 1.0
    )
    layers["residual_share"] = rec.residual_share("rep")
    return layers
