"""The native backend compiler: ProbNetKAT → probabilistic FDDs (§5.1).

The compiler translates guarded, history-free programs into canonical
probabilistic FDDs over the single-packet state space ``Pk + ∅``:

* atomic programs map directly to FDD primitives;
* composite programs are combined with the FDD algorithms of
  :mod:`repro.core.fdd.ops`;
* ``while`` loops are solved in closed form (§4, Theorem 4.7): the loop
  body FDD is converted to a sparse transition matrix over symbolic
  packet classes (dynamic domain reduction), the absorbing-chain system
  ``A = (I − Q)^{-1} R`` is solved, and the result is converted back into
  an FDD.

Programs outside the guarded fragment (bare union of non-predicates,
Kleene star) are rejected with :class:`GuardedFragmentError`, mirroring
McNetKAT's pragmatic restrictions (§5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.fdd import ops
from repro.core.fdd.evaluator import dispatch_spine
from repro.core.fdd.matrix import (
    SymbolicPacket,
    class_transition,
    enumerate_classes,
    matrix_to_fdd,
)
from repro.core.fdd.node import FddManager, FddNode, mentioned_values
from repro.core.markov import solve_absorption, solve_absorption_exact
from repro.core.packet import DROP, _DropType


class GuardedFragmentError(ValueError):
    """Raised when a program falls outside the guarded fragment (§3, §5)."""


class Compiler:
    """Compiles guarded ProbNetKAT programs to probabilistic FDDs.

    Parameters
    ----------
    manager:
        The FDD manager to intern nodes in.  All programs compared for
        equivalence must be compiled with the same manager.
    exact:
        When ``True``, loops are solved with exact rational SCC-ordered
        elimination; otherwise the sparse float64 LU solver is used
        (the role UMFPACK plays in McNetKAT).
    class_limit:
        Upper bound on the number of symbolic packet classes enumerated
        when solving a loop.  Compilation fails with a helpful error when
        the bound is exceeded; large network models should use the
        forward interpreter instead.
    """

    def __init__(
        self,
        manager: FddManager | None = None,
        exact: bool = False,
        class_limit: int = 100_000,
    ):
        self.manager = manager if manager is not None else FddManager()
        self.exact = exact
        self.class_limit = class_limit
        # Memoisation keyed by AST node identity.  The policy object is kept
        # in the value so its id cannot be recycled for a different node.
        self._raw_cache: dict[int, tuple[s.Policy, FddNode]] = {}

    # -- public API -----------------------------------------------------------
    def compile(self, policy: s.Policy) -> FddNode:
        """Compile a policy to its canonical FDD (memoised per AST node).

        The result is normalised with :func:`repro.core.fdd.ops.reduce` so
        that semantically equal programs compile to the identical interned
        node, making FDD comparison a complete equivalence check.

        Invariant: ``compile(p) is ops.reduce(compile_unreduced(p))`` —
        the program is normalised once, its loop-free sub-terms not at
        all.  ``reduce`` only drops leaf modifications implied by the
        tests above them, which every FDD operation carries down, so
        reducing the operands first arrives at the same interned node
        (or, where ``reduce`` is incomplete, at a less canonical one).
        A loop normalises its guard and body first (its symbolic domain
        is read off them) *and its result*, whose leaves write every
        field of a class.  Both steps are memoised where they happen.
        """
        return ops.reduce(self.compile_unreduced(policy))

    def compile_unreduced(self, policy: s.Policy) -> FddNode:
        """Compile without the :func:`~repro.core.fdd.ops.reduce` pass.

        The reduce normalisation only matters when FDDs are compared for
        semantic equality; evaluation-only consumers (the interpreter's
        compiled-body fast path) skip it, as redundant leaf modifications
        are harmless no-ops under action application.
        """
        cached = self._raw_cache.get(id(policy))
        if cached is not None and cached[0] is policy:
            return cached[1]
        result = self._compile(policy)
        self._raw_cache[id(policy)] = (policy, result)
        return result

    def compile_predicate(self, pred: s.Predicate) -> FddNode:
        """Compile a predicate to a 0/1-valued FDD."""
        if not isinstance(pred, s.Predicate):
            raise TypeError(f"expected a predicate, got {pred!r}")
        return self.compile(pred)

    # -- translation ------------------------------------------------------------
    def _compile(self, policy: s.Policy) -> FddNode:
        manager = self.manager
        sub = self.compile_unreduced
        if isinstance(policy, s.FalseP):
            return manager.false_leaf
        if isinstance(policy, s.TrueP):
            return manager.true_leaf
        if isinstance(policy, s.Test):
            return manager.from_test(policy.field, policy.value)
        if isinstance(policy, s.Assign):
            return manager.from_assign(policy.field, policy.value)
        if isinstance(policy, s.Not):
            return ops.negate(sub(policy.pred))
        if isinstance(policy, s.And):
            return ops.conjoin(sub(policy.left), sub(policy.right))
        if isinstance(policy, s.Or):
            return ops.disjoin(sub(policy.left), sub(policy.right))
        if isinstance(policy, s.Seq):
            return self._compile_seq(policy.parts)
        if isinstance(policy, s.Union):
            if all(isinstance(part, s.Predicate) for part in policy.parts):
                result = manager.false_leaf
                for part in policy.parts:
                    result = ops.disjoin(result, sub(part))
                return result
            raise GuardedFragmentError(
                "union of non-predicate policies is outside the guarded fragment; "
                "use if/while/case instead"
            )
        if isinstance(policy, s.Choice):
            parts = [(sub(branch), prob) for branch, prob in policy.branches]
            return ops.convex(manager, parts)
        if isinstance(policy, s.IfThenElse):
            return ops.ite(sub(policy.guard), sub(policy.then), sub(policy.otherwise))
        if isinstance(policy, s.Case):
            # Fold the branches iteratively (equivalent to case_to_ite):
            # a wide case (one branch per switch) must not consume stack
            # proportional to the number of branches.
            result = sub(policy.default)
            for guard, branch in reversed(policy.branches):
                result = ops.ite(sub(guard), sub(branch), result)
            return result
        if isinstance(policy, s.WhileDo):
            return self._compile_while(policy)
        if isinstance(policy, s.Star):
            raise GuardedFragmentError(
                "Kleene star is outside the guarded fragment; use while loops"
            )
        raise TypeError(f"unknown policy node {type(policy)!r}")

    # -- sequences ----------------------------------------------------------------
    def _compile_seq(self, parts: Sequence[s.Policy]) -> FddNode:
        """Compile ``p₁ ; … ; pₙ`` — per dispatch value when spine-shaped (§5.1, §6).

        A network model is ``case sw=1 … case sw=n`` several times over;
        multiplying the n-switch diagrams of its parts drags every
        switch's disequalities through every product.  When the parts
        dispatch on one field (:func:`~repro.core.fdd.evaluator.dispatch_spine`)
        each value ``v`` instead gets its own small product
        ``p₁|v ; … ; pₙ|v`` — a ``case`` contributes its ``v``-branch, any
        other part its diagram restricted to ``field = v`` while the
        field still holds its input value — and the per-value runs are
        joined once, with one ``ite`` each, over the run of the defaults.
        A value whose run is just the default run restricted to it adds
        no test (the monolithic product would not have one either).

        A run associates as ``lead ; ((case₁ ; … ; caseₘ) ; suffix)``:
        the value-independent ``suffix`` (flag resets, hop counter) is
        multiplied out once and meets each value's cases once, and what
        precedes the first ``case`` (local initialisations, the ingress
        predicate) comes last — so a model's first hop and its loop
        body, which differ only in that lead-in, find each other's
        per-value tails in the ``sequence`` op cache.

        Field order: a spine's dispatch field, then the other fields
        written by the part that re-assigns it (``sw``, ``pt``: a packet's
        location), are ranked before any part is compiled; every other
        field ranks by first mention.  Each switch's diagram then hangs
        off one test of the join, instead of the join being repeated
        under every combination of the flags declared first.  A part
        that is not a ``case`` is asked once for its diagram at every
        value (:func:`~repro.core.fdd.ops.cofactors`): each node of an
        n-value chain is visited once, not once per value.
        """
        spine = dispatch_spine(parts)
        if spine is None:
            return ops.sequence_all([self.compile_unreduced(part) for part in parts])
        field, marked, stable, located = spine
        self.manager.register_fields(located)
        first = next(i for i, table in enumerate(marked) if table is not None)
        whole = [
            None if table is not None else self.compile_unreduced(part)
            for part, table in zip(parts, marked)
        ]
        # Past ``stable`` the field may have been reassigned: those parts
        # run whole, and their product is the same for every value.
        suffix = [ops.sequence_all(whole[stable:])] if stable < len(parts) else []

        def run(head: list[FddNode]) -> FddNode:
            tail = ops.sequence_all(head[first:] + suffix)
            return ops.sequence_all(head[:first] + [tail])

        default = run([
            fdd if fdd is not None else self.compile_unreduced(part.default)
            for part, fdd in zip(parts[:stable], whole)
        ])
        values = sorted({
            value for table in marked if table is not None for value in table
        })
        whole_at = [
            ops.cofactors(fdd, field, values) if fdd is not None else None
            for fdd in whole[:stable]
        ]
        default_at = ops.cofactors(default, field, values)
        result = default
        for value in reversed(values):
            at_value = run([
                at[value]
                if at is not None
                else self.compile_unreduced(table.get(value, part.default))
                for part, table, at in zip(parts[:stable], marked, whole_at)
            ])
            if at_value is not default_at[value]:
                guard = self.manager.from_test(field, value)
                result = ops.ite(guard, at_value, result)
        return result

    # -- loops --------------------------------------------------------------------
    def _compile_while(self, loop: s.WhileDo) -> FddNode:
        """Closed-form compilation of ``while t do p`` (§4).

        Over the single-packet state space the loop induces an absorbing
        Markov chain whose transient states are the packet classes
        satisfying the guard and whose absorbing states are the classes
        violating it (plus drop).  The absorption probabilities give the
        loop's big-step behaviour exactly.
        """
        manager = self.manager
        guard_fdd = self.compile(loop.guard)
        body_fdd = self.compile(loop.body)

        # Shared symbolic domain for guard and body.
        domains: dict[str, set[int]] = {}
        for node in (guard_fdd, body_fdd):
            for field, values in mentioned_values(node).items():
                domains.setdefault(field, set()).update(values)
        classes = enumerate_classes(domains, limit=self.class_limit)

        def guard_holds(cls: SymbolicPacket) -> bool:
            dist = ops_evaluate_bool(manager, guard_fdd, cls)
            return dist

        transient = [cls for cls in classes if guard_holds(cls)]
        absorbing: list[SymbolicPacket | _DropType] = [
            cls for cls in classes if not guard_holds(cls)
        ]
        absorbing.append(DROP)

        transitions: dict[SymbolicPacket, dict] = {}
        for cls in transient:
            row: dict = {}
            for outcome, prob in class_transition(body_fdd, cls).items():
                row[outcome] = row.get(outcome, Fraction(0)) + prob
            transitions[cls] = row

        solver = solve_absorption_exact if self.exact else solve_absorption
        result = solver(transient, absorbing, transitions)

        rows: dict[SymbolicPacket, Dist] = {}
        for cls in classes:
            if guard_holds(cls):
                row = dict(result.get(cls, {}))
                lost = result.lost_mass.get(cls, 0)
                if lost:
                    # Mass that never exits the loop diverges; the guarded
                    # limit semantics assigns it to drop.
                    row[DROP] = row.get(DROP, 0) + lost
                rows[cls] = Dist(row, check=False)
            else:
                # Guard already false: the loop is the identity.
                rows[cls] = Dist.point(cls)

        domain_map: Mapping[str, tuple[int, ...]] = {
            field: tuple(sorted(values)) for field, values in domains.items()
        }
        # The rows write every concrete field of their output class, tested
        # above or not: normalise here, or a sequence built on this diagram
        # keeps tests that the program's one final ``reduce`` cannot remove.
        return ops.reduce(matrix_to_fdd(manager, domain_map, rows, default=manager.false_leaf))


def ops_evaluate_bool(manager: FddManager, pred_fdd: FddNode, cls: SymbolicPacket) -> bool:
    """Evaluate a predicate FDD on a symbolic class (must be boolean-leaved)."""
    from repro.core.fdd.matrix import evaluate_class
    from repro.core.fdd.actions import Action

    dist = evaluate_class(pred_fdd, cls)
    support = dist.support()
    if len(support) != 1:
        raise GuardedFragmentError("loop guard compiled to a non-deterministic FDD")
    (outcome,) = support
    if isinstance(outcome, _DropType):
        return False
    if isinstance(outcome, Action) and outcome.is_identity():
        return True
    raise GuardedFragmentError("loop guard FDD has a non-boolean leaf")


def compile_policy(
    policy: s.Policy,
    manager: FddManager | None = None,
    exact: bool = False,
    class_limit: int = 100_000,
) -> FddNode:
    """Convenience wrapper: compile ``policy`` with a fresh :class:`Compiler`."""
    return Compiler(manager=manager, exact=exact, class_limit=class_limit).compile(policy)
