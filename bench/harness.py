"""What every workload shares: run context, statistics, oracle checks, layer replay."""

from __future__ import annotations

import gc
import math
import random
import resource
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.core.interpreter import Interpreter
from repro.core.markov import solve_absorption_batched
from repro.core.fdd.matrix import fdd_to_matrix
from repro.core.fdd.node import node_size
from repro.core.packet import DROP

from spans import Recorder

#: Fresh set-ups (and cold imports) per run; ``setup_s`` takes the fastest of each.
SETUP_REPS = 3
#: Agreement demanded between the program's floats and the oracle's.
TOLERANCE = 1e-9


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 values p99 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quiet_octile(values: list[float], fast: str = "low") -> float:
    """The sample an eighth of the way in from the fast side (never interpolated).

    For statistics of short windows (a half second of requests), of which a
    run has dozens.  On a shared box a neighbour can only slow a window
    down, and does so in bursts of seconds (README, "noise"): the fast end
    is what the program costs, the rest is what the neighbour cost.  A
    window's p99 is itself an order statistic that scatters both ways, so
    the octile, not the extreme, is taken.  Below nine samples this is the
    fastest one.
    """
    ordered = sorted(values, reverse=(fast == "high"))
    return ordered[(len(ordered) - 1) // 8]


@dataclass
class Measured:
    """What a workload hands back from its timed region.

    ``units`` holds one entry per unit of work (a cold repetition, a batch
    pass, a pair of verdict tables): the wall times of its consecutive
    parts (one model, one table cell; a single part where the unit is one
    call).  Each unit delivers ``answers_per_unit`` oracle-checked answers.
    A stream has no units: it gives ``rates`` (answers per second, per
    chunk of replies) and ``windows`` (request latencies in ms, one list
    per half second of arrivals), and its unit is an all-pairs sweep at the
    measured rate.  Elsewhere throughput and latency follow from the unit.
    """

    units: list[list[float]]
    answers_per_unit: float
    rates: list[float] | None = None
    windows: list[list[float]] | None = None

    def unit_seconds(self) -> float:
        """A quiet unit: every part at its fastest over the run's units.

        Wall time of deterministic work has a floor and one-sided noise, so
        the fastest sample is the one the neighbour touched least; a part
        is shorter than a neighbour's burst, a whole unit often is not, and
        one quiet unit in a run is enough.
        """
        return sum(min(column) for column in zip(*self.units))


@dataclass
class Context:
    """One run of one workload: its parameters, checks, spans and set-up times."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    corrupt: bool
    import_samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_samples: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.rec = Recorder() if self.trace else None
        self.setup_reps = 1 if self.smoke or self.trace else SETUP_REPS

    # -- spans ---------------------------------------------------------------
    def span(self, name: str):
        """A recorded span in the traced run, nothing in the untraced one."""
        return self.rec.span(name) if self.rec is not None else nullcontext()

    @contextmanager
    def untraced(self):
        """Switch span recording off: the traced run's own untraced reference."""
        rec, self.rec = self.rec, None
        try:
            yield
        finally:
            self.rec = rec

    # -- set-up --------------------------------------------------------------
    @contextmanager
    def fresh(self, build, teardown):
        """One timed from-scratch set-up, torn down again on every way out.

        A workload sets up ``setup_reps`` times and measures an equal share
        of ``seconds`` on each (``segment_seconds``): set-up is sampled
        several times, and the timed samples are spread over the whole run
        instead of its last third, so a neighbour's burst covers fewer of them.
        """
        start = time.perf_counter()
        state = build()
        self.setup_samples.append(time.perf_counter() - start)
        try:
            yield state
        finally:
            teardown(state)

    @property
    def segment_seconds(self) -> float:
        return self.seconds / self.setup_reps

    def setup_s(self) -> float:
        """Process start to timed region: fastest import plus fastest set-up.

        The fastest, as for every other time here: the noise is one-sided,
        and a median of three flips with the neighbour (README, "noise").
        """
        return min(self.import_samples) + min(self.setup_samples, default=0.0)

    def settle(self) -> None:
        """Collect garbage left by set-up so it is not billed to the timed region."""
        gc.collect()

    # -- oracle checks ---------------------------------------------------------
    def tamper(self, expected: dict) -> dict:
        """The harness's negative test: ``--corrupt`` falsifies one expectation."""
        if self.corrupt:
            key = next(iter(expected))
            value = expected[key]
            # Every workload's first expectation is a verdict or a probability.
            expected[key] = (not value) if isinstance(value, bool) else value + 0.5
        return expected

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def check_close(self, got, want) -> bool:
        """One numeric answer (or one ``{outcome: probability}``) against the oracle."""
        if isinstance(want, dict):
            ok = isinstance(got, dict) and all(
                abs(got.get(key, 0.0) - want.get(key, 0.0)) <= TOLERANCE
                for key in got.keys() | want.keys()
            )
        else:
            ok = isinstance(got, (int, float)) and abs(got - want) <= TOLERANCE
        return self.check(ok)


# -- the independent oracle -------------------------------------------------------

def outcome_label(outcome) -> str:
    """The server's documented rendering of an output packet."""
    if outcome is DROP:
        return "drop"
    return ",".join(f"{name}={value}" for name, value in sorted(outcome.as_dict().items()))


def ast_oracle(model, packets) -> dict:
    """``{packet: {label: probability}}`` by pure AST interpretation.

    ``compile_bodies=False`` keeps the oracle off every layer under test:
    no FDD compile, no matrix assembly, no ``splu`` of the matrix backend.
    """
    interpreter = Interpreter(compile_bodies=False)
    return {
        packet: {
            outcome_label(outcome): float(prob)
            for outcome, prob in interpreter.run_packet(model.policy, packet).items()
        }
        for packet in packets
    }


def delivered_mass(labelled: dict, dest: int) -> float:
    """Delivery probability from a labelled output distribution."""
    marker = f"sw={dest}"
    return sum(
        prob for label, prob in labelled.items() if marker in label.split(",")
    )


# -- replaying single layers on a warmed plan -------------------------------------

def plan_counts(ctx: Context, plan) -> None:
    """Size of the compiled intermediate representation (counts repeat exactly)."""
    ctx.counts["fdd.stage_count"] += len(plan.stages)
    for stage in plan.stages:
        if hasattr(stage, "body_fdd"):
            ctx.counts["fdd.nodes"] += node_size(stage.body_fdd) + node_size(stage.guard_fdd)
        else:
            ctx.counts["fdd.nodes"] += node_size(stage.fdd)


def absorbing_chain(stage, matrix):
    """Transient and absorbing states of a loop stage's assembled matrix."""
    transient = [cls for cls in matrix.classes if stage.guard_holds(cls)]
    absorbing = [cls for cls in matrix.classes if not stage.guard_holds(cls)] + [DROP]
    return transient, absorbing


def replay_loop_stages(ctx: Context, plan) -> None:
    """Re-run assembly, factorization and solve of every solved loop stage.

    The stages come from a plan that already answered its queries, so the
    seed order is the real BFS frontier.  Each kernel runs cold on the same
    inputs the backend gave it, under the benchmark's own spans.
    """
    for stage in plan.loop_stages:
        if stage.body_fdd is None or not stage.seed_order:
            continue
        with ctx.span("fdd_matrix.assemble"):
            matrix = fdd_to_matrix(
                stage.body_fdd,
                extra_values=stage.domains,
                seeds=stage.seed_order,
                absorbing_when=lambda cls, stage=stage: not stage.guard_holds(cls),
            )
        transient, absorbing = absorbing_chain(stage, matrix)
        transitions = {cls: dict(matrix.row(cls).items()) for cls in transient}
        with ctx.span("markov.factorize"):
            system = solve_absorption_batched(transient, absorbing, transitions)
        with ctx.span("markov.solve"):
            system.result()
        ctx.counts["fdd_matrix.n"] += len(matrix.classes)
        ctx.counts["fdd_matrix.nnz"] += int(matrix.matrix.nnz)
        ctx.counts["fdd_matrix.rows"] += matrix.assembled_rows
