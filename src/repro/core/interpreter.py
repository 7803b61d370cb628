"""Forward interpreter: reachability-restricted analysis of guarded programs.

Where the compiler (:mod:`repro.core.compiler`) constructs the *complete*
big-step matrix of a program, this interpreter pushes a concrete input
packet (or input distribution) forward through the program, exploring
only the packet states actually reachable from that input.  Loops are
still solved exactly with the absorbing-chain closed form of §4, but the
chain is restricted to the reachable subspace — this is the scalable path
used for the network analyses of §6 and §7, mirroring how McNetKAT
queries models of the form ``in ; …``.

The interpreter also provides :meth:`Interpreter.certain_outcomes`, a
purely structural possibility analysis used to decide properties that
must hold with probability one (e.g. *k*-resilience, §7) without any
numerical computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterable

from repro.core import syntax as s
from repro.core.compiler import Compiler, GuardedFragmentError
from repro.core.distributions import Dist
from repro.core.fdd.evaluator import CompiledBody
from repro.core.fdd.node import FddManager
from repro.core.markov import IncrementalAbsorptionSolver
from repro.core.packet import DROP, Packet, _DropType

Outcome = Packet | _DropType


def eval_predicate(pred: s.Predicate, packet: Packet) -> bool:
    """Evaluate a predicate on a single concrete packet."""
    if isinstance(pred, s.TrueP):
        return True
    if isinstance(pred, s.FalseP):
        return False
    if isinstance(pred, s.Test):
        return packet.test(pred.field, pred.value)
    if isinstance(pred, s.And):
        return eval_predicate(pred.left, packet) and eval_predicate(pred.right, packet)
    if isinstance(pred, s.Or):
        return eval_predicate(pred.left, packet) or eval_predicate(pred.right, packet)
    if isinstance(pred, s.Not):
        return not eval_predicate(pred.pred, packet)
    raise TypeError(f"not a predicate: {pred!r}")


class Interpreter:
    """Forward distribution propagation over the single-packet state space.

    Parameters
    ----------
    exact:
        Solve loop absorption systems with exact rational arithmetic
        (slower, but yields exact probabilities).  The default uses the
        sparse float64 LU solver.
    max_loop_states:
        Safety bound on the number of reachable states explored per loop.
    compile_bodies:
        Compile loop bodies, and every maximal loop-free run of a
        sequence's parts, once into FDD segments and compute their rows
        by FDD evaluation instead of AST interpretation (the McNetKAT
        fast path; see :mod:`repro.core.fdd.evaluator`) — a model
        ``in ; hop ; while … do hop ; out`` is evaluated stage by stage,
        the way :class:`~repro.backends.matrix.MatrixBackend` plans it.
        Programs the compiler cannot handle — e.g. nested loops —
        silently fall back to AST interpretation, so the flag is always
        safe to leave on; turn it off to measure the interpreted baseline.
    compiler:
        Optional :class:`~repro.core.compiler.Compiler` to compile loop
        bodies with (shared with a backend, so FDDs intern in one
        manager).  A private compiler is created on first use otherwise.
    """

    def __init__(
        self,
        exact: bool = False,
        max_loop_states: int = 2_000_000,
        compile_bodies: bool = True,
        compiler: Compiler | None = None,
    ):
        self.exact = exact
        self.max_loop_states = max_loop_states
        self.compile_bodies = compile_bodies
        self._compiler = compiler
        # Per-Case dispatch tables: id(case) -> (case, dispatch table).  The
        # node itself is kept in the value so its id cannot be recycled.
        self._dispatch: dict[
            int, tuple[s.Case, tuple[str, dict[int, s.Policy], s.Policy] | None]
        ] = {}
        # Per-Seq stages: id(seq) -> (seq, stages); see :meth:`_stages`.
        self._seq_stages: dict[int, tuple[s.Seq, tuple[s.Policy, ...]]] = {}
        # Per-loop caches: explored transition rows and solved absorption rows.
        self._loop_nodes: dict[int, s.WhileDo] = {}
        self._loop_rows: dict[int, dict[Packet, Dist[Outcome]]] = {}
        self._loop_solutions: dict[int, dict[Packet, Dist[Outcome]]] = {}
        # Compiled-policy fast path: id(policy) -> (policy, CompiledBody|None).
        # Keyed by the AST node a body was compiled from (a loop's body, a
        # stage of a sequence, a part), so it is compiled once wherever it
        # is met again.
        self._compiled: dict[int, tuple[s.Policy, CompiledBody | None]] = {}
        # Incremental absorption state, per loop.
        self._loop_solvers: dict[int, IncrementalAbsorptionSolver] = {}
        # certain_outcomes of the loop body, per loop and loop-head state.
        self._loop_possible: dict[int, dict[Packet, tuple[frozenset, bool]]] = {}

    # -- public API -----------------------------------------------------------
    def run(self, policy: s.Policy, inputs: Dist[Outcome] | Packet) -> Dist[Outcome]:
        """Run ``policy`` on an input packet or distribution over packets."""
        if isinstance(inputs, Packet):
            return self.run_packet(policy, inputs)
        return self._bind(policy, inputs)

    def output_distribution(
        self, policy: s.Policy, inputs: Dist[Outcome] | Packet | Iterable[Packet]
    ) -> Dist[Outcome]:
        """Output distribution on a packet, a distribution, or a uniform ingress set."""
        if isinstance(inputs, (Packet, Dist)):
            return self.run(policy, inputs)
        return self.run(policy, Dist.uniform(list(inputs)))

    def output_distributions(
        self, policy: s.Policy, inputs: Iterable[Packet]
    ) -> dict[Packet, Dist[Outcome]]:
        """Per-ingress output distributions (loop solutions are shared across inputs)."""
        return {packet: self.run_packet(policy, packet) for packet in inputs}

    def certainly_delivers(self, model) -> bool:
        """Whether every ingress of a network model delivers with probability one.

        The model's structural possibility analysis
        (:meth:`~repro.network.model.NetworkModel.certainly_delivers`) on
        this interpreter, so its loop caches are reused.
        """
        return model.certainly_delivers(interpreter=self)

    def run_packet(self, policy: s.Policy, packet: Packet) -> Dist[Outcome]:
        """Output distribution of ``policy`` on one concrete input packet."""
        if isinstance(policy, s.Predicate):
            return Dist.point(packet if eval_predicate(policy, packet) else DROP)
        if isinstance(policy, s.Assign):
            return Dist.point(packet.set(policy.field, policy.value))
        if isinstance(policy, s.Seq):
            dist: Dist[Outcome] = Dist.point(packet)
            for stage in self._stages(policy):
                dist = self._bind(stage, dist)
            return dist
        if isinstance(policy, s.Union):
            raise GuardedFragmentError(
                "union of non-predicate policies is outside the guarded fragment"
            )
        if isinstance(policy, s.Choice):
            parts = [
                (self.run_packet(branch, packet), prob)
                for branch, prob in policy.branches
            ]
            return Dist.convex(parts, check=False)
        if isinstance(policy, s.IfThenElse):
            branch = policy.then if eval_predicate(policy.guard, packet) else policy.otherwise
            return self.run_packet(branch, packet)
        if isinstance(policy, s.Case):
            return self.run_packet(self._select_case(policy, packet), packet)
        if isinstance(policy, s.WhileDo):
            return self._run_while(policy, packet)
        if isinstance(policy, s.Star):
            raise GuardedFragmentError("Kleene star is outside the guarded fragment")
        raise TypeError(f"unknown policy node {type(policy)!r}")

    # -- helpers ---------------------------------------------------------------
    def _bind(self, policy: s.Policy, dist: Dist[Outcome]) -> Dist[Outcome]:
        compiled = self._compiled_policy(policy)
        parts: list[tuple[Dist[Outcome], object]] = []
        for outcome, mass in dist.items():
            if isinstance(outcome, _DropType):
                parts.append((Dist.point(DROP), mass))
            elif compiled is not None:
                parts.append((compiled.run_packet(outcome), mass))
            else:
                parts.append((self.run_packet(policy, outcome), mass))
        return Dist.convex(parts, check=False)

    def _stages(self, policy: s.Seq) -> tuple[s.Policy, ...]:
        """The stages ``policy`` is evaluated in, decided once per node.

        A maximal run of loop-free parts is one stage — one compiled body,
        so ``locals ; in ; failure ; routing ; topology ; resets`` ahead
        of a loop is one diagram walk per ingress instead of a bind per
        part over intermediate flag packets — and a part holding a loop
        stands alone.  A run without a compiled body (``compile_bodies``
        off, or the compiler rejects it) contributes its parts one by
        one: a stage is only ever ``policy`` itself or a compiled run, so
        evaluating one never comes back here for the same parts.
        """
        entry = self._seq_stages.get(id(policy))
        if entry is not None and entry[0] is policy:
            return entry[1]
        stages: list[s.Policy] = []
        for loop_free, group in groupby(policy.parts, key=lambda part: part.shape()[0]):
            run = tuple(group)
            if loop_free and len(run) > 1:
                whole = policy if len(run) == len(policy.parts) else s.Seq(run)
                if self._compiled_policy(whole) is not None:
                    stages.append(whole)
                    continue
            stages.extend(run)
        entry = self._seq_stages[id(policy)] = (policy, tuple(stages))
        return entry[1]

    def _select_case(self, policy: s.Case, packet: Packet) -> s.Policy:
        """Select the branch of a ``case`` for a packet, using fast dispatch.

        When every guard is a simple test on one common field (the shape
        produced by the network model builders, ``case sw=1 … case sw=n``)
        the lookup is a dictionary access instead of a linear scan.
        """
        entry = self._dispatch.get(id(policy))
        if entry is None or entry[0] is not policy:
            entry = (policy, _build_dispatch(policy))
            self._dispatch[id(policy)] = entry
        dispatch = entry[1]
        if dispatch is not None:
            field, table, default = dispatch
            value = packet.get(field)
            if value is not None and value in table:
                return table[value]
            return default
        for guard, branch in policy.branches:
            if eval_predicate(guard, packet):
                return branch
        return policy.default

    # -- loops --------------------------------------------------------------------
    def _run_while(self, loop: s.WhileDo, packet: Packet) -> Dist[Outcome]:
        if not eval_predicate(loop.guard, packet):
            return Dist.point(packet)
        if self._loop_nodes.get(id(loop)) is not loop:
            # Either a new loop or an id collision with a collected node:
            # (re)initialise the caches for this loop object.
            self._reset_loop(loop)
        solutions = self._loop_solutions.setdefault(id(loop), {})
        cached = solutions.get(packet)
        if cached is not None:
            return cached
        self._solve_loop_from(loop, packet)
        return self._loop_solutions[id(loop)][packet]

    def _reset_loop(self, loop: s.WhileDo) -> None:
        key = id(loop)
        self._loop_nodes[key] = loop
        self._loop_rows[key] = {}
        self._loop_solutions[key] = {}
        self._loop_solvers.pop(key, None)
        self._loop_possible[key] = {}

    def body_compiler(self) -> Compiler:
        """The compiler used for loop bodies (created on first use)."""
        if self._compiler is None:
            self._compiler = Compiler(manager=FddManager(), exact=self.exact)
        return self._compiler

    def _compiled_policy(self, policy: s.Policy) -> CompiledBody | None:
        """The compiled fast-path evaluator of ``policy`` (``None`` = interpret).

        Cached per AST node; ineligible policies (nested loops, unions,
        anything the compiler rejects) cache ``None`` so the check is one
        dictionary lookup on every subsequent visit.
        """
        if not self.compile_bodies:
            return None
        entry = self._compiled.get(id(policy))
        if entry is not None and entry[0] is policy:
            return entry[1]
        compiled = CompiledBody.try_compile(
            policy, self.body_compiler(), exact=self.exact
        )
        self._compiled[id(policy)] = (policy, compiled)
        return compiled

    def _explore_loop(self, loop: s.WhileDo, seed: Packet) -> None:
        """Explore the reachable loop-head states starting from ``seed``.

        Transition rows come from the compiled body (one FDD walk per
        state) whenever the body is eligible; otherwise from a full AST
        interpretation of the body per state.
        """
        rows = self._loop_rows.setdefault(id(loop), {})
        compiled = self._compiled_policy(loop.body)
        frontier = [seed]
        while frontier:
            state = frontier.pop()
            if state in rows:
                continue
            if len(rows) >= self.max_loop_states:
                raise RuntimeError(
                    f"loop exploration exceeded {self.max_loop_states} states"
                )
            if compiled is not None:
                row = compiled.run_packet(state)
            else:
                row = self.run_packet(loop.body, state)
            rows[state] = row
            for outcome in row.support():
                if isinstance(outcome, _DropType):
                    continue
                if eval_predicate(loop.guard, outcome) and outcome not in rows:
                    frontier.append(outcome)

    def _solve_loop_from(self, loop: s.WhileDo, seed: Packet) -> None:
        """Solve the loop's absorbing chain for all currently known states.

        The solve is incremental: the per-loop
        :class:`~repro.core.markov.IncrementalAbsorptionSolver` keeps the
        factorized absorption system alive, transition rows are converted
        to solver weights only once (when first explored), and the system
        is re-factorized only when new transient states appeared since
        the last solve.
        """
        self._explore_loop(loop, seed)
        key = id(loop)
        rows = self._loop_rows[key]
        solver = self._loop_solvers.get(key)
        if solver is None:
            solver = self._loop_solvers[key] = IncrementalAbsorptionSolver(
                exact=self.exact
            )

        # The solver only reads rows of not-yet-solved states (solved
        # distributions are final), so only those are converted — and
        # nothing converted is retained past the solve.
        solved = solver.solved_states
        transitions: dict[Packet, dict[Outcome, object]] = {}
        for state, row in rows.items():
            if state in solved:
                continue
            if self.exact:
                transitions[state] = {
                    succ: Fraction(prob) for succ, prob in row.items()
                }
            else:
                transitions[state] = {
                    succ: float(prob) for succ, prob in row.items()
                }
        if not transitions:
            return
        transient = list(rows)
        result = solver.solve(transient, transitions)

        solutions = self._loop_solutions.setdefault(key, {})
        for state in transient:
            if state in solutions:
                # Solved states never gain successors, so their
                # absorption distributions are final.
                continue
            out = dict(result.get(state, {}))
            lost = result.lost_mass.get(state, 0)
            if lost:
                # Diverging mass is assigned to drop (guarded limit semantics).
                out[DROP] = out.get(DROP, 0) + lost
            solutions[state] = Dist(out, check=False)

    # -- statistics ----------------------------------------------------------------
    def loop_stats(self) -> dict[str, int]:
        """Aggregate statistics over every loop this interpreter has solved.

        ``factorizations`` counts growth steps (one factorization of the
        new states each); repeated seeds over an already-solved state
        space do not increase it.  ``schur_updates`` counts the steps
        among them that extended an already-solved chain.
        ``compiled_loops`` counts loops whose bodies run on the
        compiled-FDD fast path, ``compiled_bodies`` every body built for
        it (loop bodies and stages of sequences) and ``body_runs`` the
        packets pushed through them.
        """
        bodies = [body for _, body in self._compiled.values() if body is not None]
        return {
            "loops": len(self._loop_nodes),
            "states": sum(len(rows) for rows in self._loop_rows.values()),
            "factorizations": sum(
                solver.factorizations for solver in self._loop_solvers.values()
            ),
            "schur_updates": sum(
                solver.schur_updates for solver in self._loop_solvers.values()
            ),
            "compiled_loops": sum(
                1
                for loop in self._loop_nodes.values()
                if (entry := self._compiled.get(id(loop.body))) is not None
                and entry[1] is not None
            ),
            "compiled_bodies": len(bodies),
            "body_runs": sum(body.runs for body in bodies),
        }

    # -- structural possibility analysis ----------------------------------------
    def certain_outcomes(self, policy: s.Policy, packet: Packet) -> tuple[frozenset[Outcome], bool]:
        """The set of possible outcomes and whether the program may diverge.

        Returns ``(outcomes, may_diverge)`` where ``outcomes`` is the
        support of the output distribution (every outcome reachable with
        positive probability) and ``may_diverge`` indicates that some
        probability mass may never leave a loop.  Useful for verifying
        probability-one properties (e.g. resilience) exactly, without
        numerical solves.
        """
        if isinstance(policy, s.Predicate):
            out: Outcome = packet if eval_predicate(policy, packet) else DROP
            return frozenset([out]), False
        if isinstance(policy, s.Assign):
            return frozenset([packet.set(policy.field, policy.value)]), False
        if isinstance(policy, s.Seq):
            current: frozenset[Outcome] = frozenset([packet])
            diverge = False
            for part in policy.parts:
                next_outcomes: set[Outcome] = set()
                for outcome in current:
                    if isinstance(outcome, _DropType):
                        next_outcomes.add(DROP)
                        continue
                    outs, d = self.certain_outcomes(part, outcome)
                    next_outcomes.update(outs)
                    diverge = diverge or d
                current = frozenset(next_outcomes)
            return current, diverge
        if isinstance(policy, s.Choice):
            outcomes: set[Outcome] = set()
            diverge = False
            for branch, _prob in policy.branches:
                outs, d = self.certain_outcomes(branch, packet)
                outcomes.update(outs)
                diverge = diverge or d
            return frozenset(outcomes), diverge
        if isinstance(policy, s.IfThenElse):
            branch = policy.then if eval_predicate(policy.guard, packet) else policy.otherwise
            return self.certain_outcomes(branch, packet)
        if isinstance(policy, s.Case):
            return self.certain_outcomes(self._select_case(policy, packet), packet)
        if isinstance(policy, s.WhileDo):
            return self._certain_outcomes_while(policy, packet)
        raise GuardedFragmentError(f"unsupported construct in possibility analysis: {policy!r}")

    def _certain_outcomes_while(
        self, loop: s.WhileDo, packet: Packet
    ) -> tuple[frozenset[Outcome], bool]:
        if not eval_predicate(loop.guard, packet):
            return frozenset([packet]), False
        if self._loop_nodes.get(id(loop)) is not loop:
            self._reset_loop(loop)
        possible = self._loop_possible[id(loop)]
        # Explore the support graph of the loop body over loop-head states;
        # the body's verdict on a state is shared by every ingress reaching it.
        predecessors: dict[Packet, list[Packet]] = {}
        can_exit: list[Packet] = []
        outcomes: set[Outcome] = set()
        diverge = False
        seen: set[Packet] = set()
        frontier = [packet]
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            body = possible.get(state)
            if body is None:
                body = possible[state] = self.certain_outcomes(loop.body, state)
            diverge = diverge or body[1]
            for outcome in body[0]:
                if isinstance(outcome, _DropType) or not eval_predicate(loop.guard, outcome):
                    outcomes.add(outcome)
                    can_exit.append(state)
                else:
                    predecessors.setdefault(outcome, []).append(state)
                    if outcome not in seen:
                        frontier.append(outcome)
        # A loop diverges when some reachable loop-head state cannot exit.
        exiting = set(can_exit)
        while can_exit:
            for predecessor in predecessors.get(can_exit.pop(), ()):
                if predecessor not in exiting:
                    exiting.add(predecessor)
                    can_exit.append(predecessor)
        return frozenset(outcomes), diverge or len(exiting) < len(seen)


def _build_dispatch(
    policy: s.Case,
) -> tuple[str, dict[int, s.Policy], s.Policy] | None:
    """Build a dictionary dispatch table for single-field ``case`` guards.

    Delegates to the evaluator's :func:`~repro.core.fdd.evaluator._dispatch_table`
    so the AST interpreter and the compiled-body fast path share one
    definition of case-dispatch semantics (first duplicate guard wins,
    mixed guards fall back to a linear scan).
    """
    from repro.core.fdd.evaluator import _dispatch_table

    dispatch = _dispatch_table(policy)
    if dispatch is None:
        return None
    field, table = dispatch
    return field, table, policy.default


def output_distribution(
    policy: s.Policy,
    inputs: Dist[Outcome] | Packet | Iterable[Packet],
    exact: bool = False,
) -> Dist[Outcome]:
    """Convenience wrapper: run ``policy`` on packets or a distribution.

    When ``inputs`` is an iterable of packets, the uniform distribution
    over them is used (the convention for multi-ingress network queries).
    """
    return Interpreter(exact=exact).output_distribution(policy, inputs)
