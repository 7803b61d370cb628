"""The batched sparse-matrix query backend (§5–§6).

This backend realises the paper's performance story at query time: a
network model compiles *once* into sparse stochastic matrices over
symbolic packet classes, the absorbing-chain system ``I - Q`` of each
loop is factorized *once* with ``splu``, and every ingress query — output
distributions, hop-count CDFs, delivery/resilience probabilities — is
answered by batched multi-RHS solves against the cached factorization.

Compared with the forward interpreter (which re-solves a growing
absorption system for every new ingress seed), the matrix backend:

* decomposes a guarded model ``in ; body ; while ¬out do body ; …`` into
  loop-free *FDD stages* and *loop stages*; a run that ends in its loop's
  own body parts is a *do-while* loop stage, ``body ; while ¬out do
  body``, so the hop is compiled once (a packet the guard holds on enters
  the chain directly, any other takes one body row first);
* compiles each stage to a canonical FDD once (stages are shared across
  queries on the same policy object);
* converts loop bodies to sparse transition matrices over the symbolic
  classes *reachable* from the query's ingress set (dynamic domain
  reduction restricted to the reachable subspace, §5.1);
* keeps, per loop, one indexed chain (:class:`~repro.core.fdd.matrix.ClassChain`)
  whose rows go to the solver by index
  (:meth:`repro.core.markov.IncrementalAbsorptionSolver.grow`): all
  absorption columns from one factorization, a row decoded when a query
  enters through it.

Every stage runs on symbolic classes, and so does the batch between
stages: its ingress packets are classified once, over the plan's layout
(every field and value some stage mentions), its columns stay class
codes plus a residual id from the first stage to the last
(:class:`~repro.core.fdd.flat.Columns`), a class's row is taken once per
stage (a loop-free diagram walked, or a solved loop row read), and
packets are decoded once, after the last stage.  A query returns one
:class:`~repro.core.answer.Answer`, an ingress × outcome matrix built by
one sparse product per stage; a ``Dist`` is built only when a caller
looks one up.  Loop solutions are
float64, like the interpreter's LU path, and so are the loop-free
stages of a plan with a loop; a plan without one keeps the exact
rational leaf weights.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core import syntax as s
from repro.core.answer import Answer, delivered_mass
from repro.core.compiler import Compiler, RolePlan, leaf_holds
from repro.core.distributions import Dist
from repro.core.fdd.flat import (
    ClassLayout,
    ClassRows,
    Codes,
    Columns,
    FlatDiagram,
    Projection,
    group_rows,
)
from repro.core.fdd.matrix import (
    ClassChain,
    SymbolicPacket,
    TransitionMatrix,
    class_transition,
    matrix_domains,
)
from repro.core.fdd.node import (
    FddManager,
    FddNode,
    leaf_of,
    node_from_spec,
    node_to_spec,
)
from repro.core.interpreter import Outcome
from repro.core.markov import IncrementalAbsorptionSolver
from repro.core.packet import DROP, Packet, _DropType
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:
    import numpy as np


class _ClassStage:
    """What both stage kinds share: classes in, rows over classes out.

    A class is a row of int codes over the stage's ``layout``
    (:class:`~repro.core.fdd.flat.ClassLayout`, the ``domains`` fields
    sorted).  A batch's columns reach a stage as classes over it
    (:class:`~repro.core.fdd.flat.Projection` ``.down``), and each
    follows its class's row in ``rows``
    (:class:`~repro.core.fdd.flat.ClassRows`, CSR over classes and drop,
    found by class key).  A row is taken once per class, the rows of all
    of one batch's new classes from one call (:meth:`take_rows`), and kept
    as long as the stage: :meth:`MatrixBackend.reset_solutions` replaces
    every stage with its ``fresh()`` copy, which keeps only what belongs
    to the compiled diagrams — the layout and the diagrams flattened over
    it (:class:`~repro.core.fdd.flat.FlatDiagram`).
    """

    def __init__(
        self, domains: dict[str, tuple[int, ...]], layout: ClassLayout | None, exact: bool = False
    ):
        self.domains = domains
        self.layout = layout if layout is not None else ClassLayout(domains)
        self.rows = ClassRows(self.layout, exact)

    def take_rows(self, codes: np.ndarray, keys: np.ndarray, limit: int) -> int:
        """Put the rows of the classes ``codes`` (distinct, none held, with
        their ``keys``) into ``rows``; returns the classes a loop's chain
        appended on the way (``limit`` bounds them)."""
        raise NotImplementedError  # pragma: no cover

    def rows_of(self, codes: np.ndarray, drop: np.ndarray, limit: int) -> tuple[np.ndarray, int]:
        """The row of each class of ``codes`` (drop's where ``drop``), the
        rows of the classes without one taken first, in one call; and the
        classes a loop's chain appended for them."""
        keys = self.layout.keys(codes)
        found = self.rows.find(keys)
        found[drop] = 0
        missing = (found < 0).nonzero()[0]
        if not len(missing):
            return found, 0
        group, first = group_rows(keys[missing], None)
        new = missing[first]
        appended = self.take_rows(codes[new], keys[new], limit)
        found[missing] = self.rows.find(keys[new])[group]
        return found, appended


Body = FddNode | RolePlan
"""A compiled loop-free program: its diagram, or its per-role plan."""


def _diagram(body: Body) -> FddNode:
    """The whole diagram of ``body`` (a per-role plan builds it on first use)."""
    return body.fdd if isinstance(body, RolePlan) else body


def _flat(body: Body, layout: ClassLayout) -> FlatDiagram:
    """``body`` flattened over ``layout``; a per-role plan once per role."""
    if isinstance(body, RolePlan):
        return FlatDiagram.of_roles(body, layout)
    return FlatDiagram(body, layout)


def _mentioned(body: Body) -> dict[str, set[int]]:
    """Per field, the values ``body``'s diagram tests or writes."""
    return body.mentioned_values() if isinstance(body, RolePlan) else matrix_domains(body)


class _FddStage(_ClassStage):
    """A loop-free policy segment, compiled to one canonical FDD.

    It runs on classes over the values the diagram mentions, its rows kept
    until the stage is reset.  ``walks`` counts the rows taken, across
    resets.  Rows are float64 in a plan with a loop stage, which floats
    every mass anyway — one walk of ``flat`` for all of a batch's new
    classes — and exact leaf weights
    (:func:`~repro.core.fdd.matrix.class_transition`, per class) in a
    plan without one.  The stage is built from its compiled ``body``, a
    :class:`~repro.core.compiler.RolePlan` where the program has one:
    ``fdd`` is then built only when asked for.
    """

    def __init__(self, body: Body, exact: bool, flat: FlatDiagram | None = None):
        domains = _mentioned(body)
        super().__init__(
            {field: tuple(sorted(values)) for field, values in domains.items()},
            flat.layout if flat is not None else None,
            exact,
        )
        self.body = body
        self.exact = exact
        self.walks = 0
        if flat is None and not exact:
            flat = _flat(body, self.layout)
        self.flat = flat

    @property
    def fdd(self) -> FddNode:
        return _diagram(self.body)

    def fresh(self) -> "_FddStage":
        """This stage's diagram and flat form, no row taken."""
        stage = _FddStage(self.body, self.exact, self.flat)
        stage.walks = self.walks
        return stage

    def take_rows(self, codes: np.ndarray, keys: np.ndarray, limit: int) -> int:
        """Where the diagram sends each class: one walk for all of them."""
        import numpy as np

        self.walks += len(codes)
        if not self.exact:
            owner, successors, drop, successor_keys, probs = self.flat.step(codes)
            outcomes = self.rows.outcome_ids(successors, successor_keys, drop)
            self.rows.add(keys, np.bincount(owner, minlength=len(codes)), outcomes, probs)
            return 0
        layout = self.layout
        counts, successors, drop, probs = [], [], [], []
        wildcards = (0,) * len(layout.fields)
        for cls in codes.tolist():
            dist = class_transition(self.fdd, SymbolicPacket._from_sorted(layout.pairs(cls)))
            counts.append(len(dist))
            for outcome, mass in dist.items():
                drop.append(outcome is DROP)
                successors.append(wildcards if outcome is DROP else layout.encode(outcome.values))
                probs.append(mass)
        successors = layout.array(successors)
        drop = np.array(drop, dtype=bool)
        outcomes = self.rows.outcome_ids(successors, layout.keys(successors), drop)
        self.rows.add(
            keys, np.array(counts, dtype=np.int64), outcomes, np.array(probs, dtype=object)
        )
        return 0


class _LoopStage(_ClassStage):
    """A ``while`` loop with its one indexed chain and what was solved on it.

    ``chain`` (:class:`~repro.core.fdd.matrix.ClassChain`) owns the
    ``class -> int`` index: the classes reached from every seed so far,
    their body rows as CSR buffers over those ints, a transient flag per
    class (the guard holds), explored one BFS frontier at a time over the
    body flattened on the stage's layout — per role where the body is a
    :class:`~repro.core.compiler.RolePlan`, whose whole diagram
    ``body_fdd`` is then built only when asked for; ``guard`` is the guard
    flattened on it.  ``solver``
    (:class:`~repro.core.markov.IncrementalAbsorptionSolver`) is fed the
    rows each exploration appended, by index, and keeps the solved rows as
    arrays over its outcome index — so new ingress classes cost their own
    exploration and one factorization of the newly discovered subsystem,
    already-solved classes acting as absorbing gateways, and no class is
    expanded, indexed or factorized twice.  ``rows`` holds the stage's row
    of every class it was asked about — a solved row read off the solver,
    with its lost mass on drop, for a class the guard holds on — and of
    every class a do-while's first body row enters the loop through.  All
    of it but the layout and the flat diagrams dies with the stage
    (:meth:`MatrixBackend.reset_solutions`).
    """

    def __init__(
        self,
        loop: s.WhileDo | None,
        guard_fdd: FddNode,
        body: Body,
        domains: dict[str, tuple[int, ...]],
        do_while: bool = False,
        watch: Stopwatch | None = None,
        flats: tuple[FlatDiagram, FlatDiagram] | None = None,
    ):
        import numpy as np

        super().__init__(domains, flats[0].layout if flats is not None else None)
        #: The source AST of the loop, when this stage was built from one.
        #: Purely informational: query evaluation only ever consults the
        #: compiled ``guard_fdd``, so stages rebuilt from
        #: manager-independent specs — in a worker process — carry
        #: ``None`` here and behave identically.
        self.loop = loop
        self.guard_fdd = guard_fdd
        self.body = body
        #: The stage runs ``body ; while guard do body``: a class the
        #: guard fails on takes one ``body_fdd`` row before the loop (on
        #: any other the loop already begins with the body).
        self.do_while = do_while
        self.watch = watch
        flat, self.guard = flats if flats is not None else (
            _flat(body, self.layout),
            FlatDiagram(guard_fdd, self.layout),
        )
        self.chain = ClassChain(None, self.layout, flat)
        self.solver = IncrementalAbsorptionSolver(watch=watch)
        self._guard_leaves: dict[int, bool] = {}
        # The seeds of each exploration, as code rows.
        self._seeds: list[np.ndarray] = []
        # Per chain state, its outcome id in ``rows`` (-1: none yet).
        self._outcome_of = np.zeros(0, dtype=np.int64)

    def fresh(self) -> "_LoopStage":
        """This stage's compiled loop and its flat diagrams, nothing
        explored, solved or taken."""
        return _LoopStage(
            self.loop,
            self.guard_fdd,
            self.body,
            self.domains,
            self.do_while,
            self.watch,
            (self.chain.flat, self.guard),
        )

    @property
    def body_fdd(self) -> FddNode:
        return _diagram(self.body)

    def spec(self) -> tuple:
        """The manager-independent spec :meth:`from_spec` rebuilds this stage from."""
        return (
            "do-while" if self.do_while else "loop",
            node_to_spec(self.guard_fdd),
            node_to_spec(self.body_fdd),
            tuple(sorted(self.domains.items())),
        )

    @classmethod
    def from_spec(cls, manager: FddManager, spec: tuple, watch: Stopwatch | None) -> "_LoopStage":
        """A fresh stage from :meth:`spec`, its diagrams interned in ``manager``."""
        kind, guard_spec, body_spec, domains = spec
        return cls(
            None,
            node_from_spec(manager, guard_spec),
            node_from_spec(manager, body_spec),
            dict(domains),
            kind == "do-while",
            watch,
        )

    @property
    def matrix(self) -> TransitionMatrix | None:
        """The chain explored so far as a :class:`TransitionMatrix` (a view
        built on request; ``None`` before the first seed)."""
        return self.chain.matrix() if len(self.chain) > 1 else None

    @property
    def factorizations(self) -> int:
        """Growth steps (one factorization each) performed so far."""
        return self.solver.factorizations

    @property
    def schur_updates(self) -> int:
        """The growth steps among them that extended an already-solved chain."""
        return self.solver.schur_updates

    def guard_holds(self, cls: SymbolicPacket) -> bool:
        """The guard on a class a caller holds: the boolean of its leaf."""
        leaf = leaf_of(self.guard_fdd, dict(cls.values).get)
        holds = self._guard_leaves.get(leaf.uid)
        if holds is None:
            holds = self._guard_leaves[leaf.uid] = leaf_holds(leaf)
        return holds

    @property
    def seeds(self) -> set[Codes]:
        """Every class the chain was seeded with so far."""
        return {tuple(row) for seeds in self._seeds for row in seeds.tolist()}

    @property
    def seed_order(self) -> list[SymbolicPacket]:
        """All seeds seen so far, in class order."""
        return [self.chain.decode(cls) for cls in sorted(self.seeds)]

    def take_rows(self, codes: np.ndarray, keys: np.ndarray, limit: int) -> int:
        """The stage's output on each class, over outcome classes.

        The solved row when the guard holds; in a do-while, the first body
        row with every successor the guard holds on replaced by its solved
        row (each outcome once, its masses summed in entry order); else
        the class itself (the loop does not run).  One guard walk for the
        classes, one body walk for the do-while's first rows and one guard
        walk for their successors; the classes entered through are solved
        first, in one growth step.
        """
        import numpy as np

        holds = self.guard.holds(codes)
        entering, entering_keys = codes[holds], keys[holds]
        failing = ~holds
        first = None
        if self.do_while and failing.any():
            first = self.chain.flat.step(codes[failing])
            _owner, successors, drop, successor_keys, _probs = first
            enters = ~drop & self.guard.holds(successors)
            entering = np.concatenate([entering, successors[enters]])
            entering_keys = np.concatenate([entering_keys, successor_keys[enters]])
        appended = self._take_solved(entering, entering_keys, limit, may_repeat=first is not None)
        if not failing.any():
            return appended
        if first is None:
            count = int(failing.sum())
            itself = self.rows.outcome_ids(
                codes[failing], keys[failing], np.zeros(count, dtype=bool)
            )
            self.rows.add(keys[failing], np.ones(count, dtype=np.int64), itself, np.ones(count))
        else:
            self.rows.add(keys[failing], *self._through_the_loop(first, enters, int(failing.sum())))
        return appended

    def _through_the_loop(self, first, enters: np.ndarray, classes: int):
        """The do-while rows: each first-row entry the guard holds on
        spread over its solved row, the rest kept; per row, each outcome
        once at its first place."""
        import numpy as np

        owner, successors, drop, keys, probs = first
        rows = self.rows
        counts, solved = rows.entries(rows.find(keys[enters]))
        kept = np.flatnonzero(~enters)
        spread = np.ones(len(owner), dtype=np.int64)
        spread[enters] = counts
        starts = np.cumsum(spread) - spread
        outcomes = np.empty(int(spread.sum()), dtype=np.int64)
        masses = np.empty(len(outcomes))
        outcomes[starts[kept]] = rows.outcome_ids(successors[kept], keys[kept], drop[kept])
        masses[starts[kept]] = probs[kept]
        ends = np.cumsum(counts)
        at = np.arange(len(solved)) + np.repeat(starts[enters] - ends + counts, counts)
        outcomes[at] = rows.outcomes[solved]
        masses[at] = rows.probs[solved] * np.repeat(probs[enters], counts)
        # Each outcome of a row once, at its first place; bincount sums the
        # masses in entry order from zero, as a dict merge would.
        owner = np.repeat(owner, spread)
        group, once = group_rows(owner * len(rows.codes) + outcomes, None)
        return (
            np.bincount(owner[once], minlength=classes),
            outcomes[once],
            np.bincount(group, weights=masses),
        )

    def _take_solved(
        self, codes: np.ndarray, keys: np.ndarray, limit: int, may_repeat: bool
    ) -> int:
        """Solve the classes ``codes`` the guard holds on and put their
        solved rows into ``rows``; with ``may_repeat`` a class may be
        given twice or have a row already, and is taken once or not at all.

        Mass that reaches no absorbing class diverges; the guarded limit
        semantics assigns it to drop.
        """
        import numpy as np

        if may_repeat:
            missing = self.rows.find(keys) < 0
            _, first = np.unique(keys[missing], return_index=True)
            codes, keys = codes[missing][first], keys[missing][first]
        if not len(codes):
            return 0
        appended = self._solve(codes, keys, limit)
        counts, states, masses, lost = self.solver.absorbed_rows(self.chain.lookup(keys))
        if lost.any():  # onto state 0, drop
            row = np.repeat(np.arange(len(counts)), counts)
            at_drop = states == 0
            masses[at_drop] += lost[row[at_drop]]
            with_drop = np.bincount(row[at_drop], minlength=len(counts)) > 0
            alone = np.flatnonzero((lost > 0) & ~with_drop)
            ends = np.cumsum(counts)[alone]
            states = np.insert(states, ends, 0)
            masses = np.insert(masses, ends, lost[alone])
            counts[alone] += 1
        self.rows.add(keys, counts, self._outcomes_of(states), masses)
        return appended

    def _outcomes_of(self, states: np.ndarray) -> np.ndarray:
        """The outcome id in ``rows`` of each chain state (state 0: drop)."""
        import numpy as np

        if len(self._outcome_of) < len(self.chain):
            known = self._outcome_of
            self._outcome_of = np.full(2 * len(self.chain), -1, dtype=np.int64)
            self._outcome_of[: len(known)] = known
        ids = self._outcome_of[states]
        if (ids < 0).any():
            asked = np.zeros(len(self._outcome_of), dtype=bool)
            asked[states[ids < 0]] = True
            new = asked.nonzero()[0]
            codes = self.chain.codes_at(new)
            self._outcome_of[new] = self.rows.outcome_ids(codes, self.layout.keys(codes), new == 0)
            ids = self._outcome_of[states]
        return ids

    def _solve(self, codes: np.ndarray, keys: np.ndarray, limit: int) -> int:
        """Put every class of ``codes`` (distinct, with ``keys``) on the chain, solved.

        The classes the chain does not hold are its new seeds, taken in
        class order: exploration appends them and what they newly reach,
        one BFS frontier per step, and the solver factorizes exactly the
        rows that were appended — classes solved for an earlier seed are
        absorbing gateways whose final rows are composed in — so each
        class is expanded once and participates in one, small,
        factorization however the seeds arrive.  Solved rows are final:
        exploration closes forward reachability, so a solved class never
        gains a successor.  Returns how many classes the chain appended.
        """
        import numpy as np

        chain = self.chain
        fresh = codes[chain.lookup(keys) < 0]
        if not len(fresh):
            return 0
        fresh = fresh[np.lexsort(fresh.T[::-1])]
        known = len(chain)
        with self.watch.measure("assemble") if self.watch is not None else nullcontext():
            stored = chain.explore(
                fresh, absorbing=lambda rows: ~self.guard.holds(rows), limit=limit
            )
            rows = chain.rows_from(stored)
        self._seeds.append(fresh)
        # The solver reports its own "factorize"/"solve" sections on the
        # stage's stopwatch, so no outer measurement wraps it — the phases
        # stay disjoint.
        if len(rows[0]):
            self.solver.grow(*rows)
        return len(chain) - known


@dataclass
class QueryPlan:
    """A policy decomposed into alternating FDD and loop stages.

    ``specs`` caches the manager-independent serialization of the stages
    (see :meth:`MatrixBackend.plan_key` and
    :meth:`MatrixBackend.plan_payload`); it is filled lazily the first
    time the plan is shipped or keyed.
    """

    policy: s.Policy | None
    stages: list[_FddStage | _LoopStage]
    specs: tuple | None = field(default=None, repr=False)
    _projections: list[Projection] | None = field(default=None, repr=False)

    @property
    def loop_stages(self) -> list[_LoopStage]:
        return [stage for stage in self.stages if isinstance(stage, _LoopStage)]

    @property
    def projections(self) -> list[Projection]:
        """Per stage, its layout inside the plan's
        (:class:`~repro.core.fdd.flat.Projection`): built on first use,
        kept across :meth:`MatrixBackend.reset_solutions` (the layouts are)."""
        if self._projections is None:
            self._projections = Projection.for_stages([stage.layout for stage in self.stages])
        return self._projections


def _stages(parts: list[Body | _LoopStage]) -> list[_FddStage | _LoopStage]:
    """A plan's stages from its loop-free diagrams and loop stages, in order.

    The diagrams run exactly when no loop stage will float the masses.
    """
    exact = not any(isinstance(part, _LoopStage) for part in parts)
    return [part if isinstance(part, _LoopStage) else _FddStage(part, exact) for part in parts]


def mix_outputs(
    inputs: Packet | Dist[Outcome] | Iterable[Packet],
    solve: Callable[[list[Packet]], Mapping[Packet, Dist[Outcome]]],
) -> Dist[Outcome]:
    """The output distribution on a packet, a distribution, or a uniform ingress set.

    ``solve(packets)`` answers every proper input packet with its own
    output distribution in one batched call; the input masses mix them
    (a dropped input stays dropped).
    """
    if isinstance(inputs, Packet):
        weighted: list[tuple[Outcome, object]] = [(inputs, 1)]
    elif isinstance(inputs, Dist):
        weighted = list(inputs.items())
    else:
        packets = list(inputs)
        if not packets:
            raise ValueError("cannot build a uniform distribution over no outcomes")
        share = s.as_prob(1) / len(packets)
        weighted = [(packet, share) for packet in packets]
    outputs = solve([pk for pk, _ in weighted if not isinstance(pk, _DropType)])
    parts: list[tuple[Dist[Outcome], object]] = []
    for outcome, mass in weighted:
        if isinstance(outcome, _DropType):
            parts.append((Dist.point(DROP), mass))
        else:
            parts.append((outputs[outcome], mass))
    return Dist.convex(parts, check=False)


@dataclass
class MatrixBackend:
    """Batched sparse-matrix backend: compile once, factorize once, query many.

    Parameters
    ----------
    class_limit:
        Bound on the number of symbolic classes explored per loop.

    The batched solver is float64 by design (``splu``); exact rational
    loop solving is ``Interpreter(exact=True)``.
    """

    class_limit: int = 1_000_000
    watch: Stopwatch = field(default_factory=Stopwatch)

    def __post_init__(self) -> None:
        self.manager = FddManager()
        self._compiler = Compiler(manager=self.manager, class_limit=self.class_limit)
        #: Classes written onto chains and matrices by this backend (the
        #: assembly work counter exported via :meth:`solver_stats` and
        #: worker reports).
        self.assembly_rows = 0
        #: How many plans this backend built by *compiling an AST* (the
        #: expensive path).  Adopted plans (rebuilt from shipped specs) do
        #: not count — worker processes assert this stays 0.
        self.ast_compilations = 0
        # Plan cache keyed by policy object identity (the policy is kept in
        # the value so a recycled id cannot alias a different program).
        self._plans: dict[int, tuple[s.Policy, QueryPlan]] = {}
        # Plans adopted from a manager-independent wire payload, keyed by
        # the caller's plan id (see adopt_plan; used by worker processes).
        self._adopted: dict[object, QueryPlan] = {}
        # Manager-independent canonical stage keys (see plan_key).
        self._plan_keys: dict[int, tuple[s.Policy, tuple]] = {}

    # -- compilation ----------------------------------------------------------
    def compile(self, policy: s.Policy) -> FddNode:
        """Compile ``policy`` to its canonical FDD (timed as ``"compile"``)."""
        with self.watch.measure("compile"):
            return self._compiler.compile(policy)

    def plan(self, policy: s.Policy) -> QueryPlan:
        """Decompose ``policy`` into compiled stages (cached per policy)."""
        cached = self._plans.get(id(policy))
        if cached is not None and cached[0] is policy:
            return cached[1]
        with self.watch.measure("compile"):
            plan = self._build_plan(policy)
        self._plans[id(policy)] = (policy, plan)
        return plan

    def plan_key(self, policy: s.Policy) -> tuple:
        """A canonical, manager-independent cache key for ``policy``.

        The key serializes the compiled stage FDDs via
        :func:`~repro.core.fdd.node.node_to_spec`, so it is structural:
        two semantically equal policies — or the same policy compiled by
        two different backends (different managers, different node ids) —
        produce the *same* key.  Session result caches key on this, which
        is what lets a replica pool share one result cache.
        """
        cached = self._plan_keys.get(id(policy))
        if cached is not None and cached[0] is policy:
            return cached[1]
        specs = self._stage_specs(self.plan(policy))
        # Keep only the structural prefix of each stage spec (kind, guard,
        # body): the domains are derivable from the guard/body diagrams.
        key = ("fdd-stages", tuple(entry[:3] for entry in specs))
        self._plan_keys[id(policy)] = (policy, key)
        return key

    def _stage_specs(self, plan: QueryPlan) -> tuple:
        """Manager-independent stage specs of ``plan`` (cached on the plan).

        Specs are plain picklable data — FDD node lists, field names, and
        domain values — with **no AST objects**: loop stages serialize only
        their kind (``"loop"`` or ``"do-while"``), compiled guard/body
        diagrams and domains, which is all query evaluation needs
        (:meth:`_LoopStage.spec`).  This is what lets the payload ship to a
        worker process and rebuild the plan there.
        """
        if plan.specs is None:
            plan.specs = tuple(
                ("fdd", node_to_spec(stage.fdd)) if isinstance(stage, _FddStage) else stage.spec()
                for stage in plan.stages
            )
        return plan.specs

    def _plan_from_spec(self, fields: tuple[str, ...], stage_specs: tuple) -> QueryPlan:
        """Rebuild a plan from shipped specs into this backend's manager."""
        self.manager.register_fields(fields)
        parts = [
            node_from_spec(self.manager, entry[1])
            if entry[0] == "fdd"
            else _LoopStage.from_spec(self.manager, entry, self.watch)
            for entry in stage_specs
        ]
        return QueryPlan(None, _stages(parts), specs=stage_specs)

    # -- spec-shipped plans (worker processes) ----------------------------------
    def plan_payload(self, policy: s.Policy) -> tuple[tuple[str, ...], tuple]:
        """The ``(field_order, stage_specs)`` wire payload of ``policy``.

        The payload is entirely manager-independent plain data (no AST
        objects, no FDD nodes), so it can cross a process boundary and be
        adopted by a worker's own backend via :meth:`adopt_plan`.  The
        policy is compiled here if it has not been planned yet.
        """
        return self.manager.fields, self._stage_specs(self.plan(policy))

    def adopt_plan(
        self, plan_id: object, fields: tuple[str, ...], stage_specs: tuple
    ) -> QueryPlan:
        """Rebuild a shipped plan under ``plan_id`` (idempotent per id).

        This is the worker-process half of spec shipping: the plan is
        reconstructed from its manager-independent payload — *no AST
        compilation happens* (:attr:`ast_compilations` is untouched) — and
        registered under the caller-chosen id so later
        :meth:`query_plan` calls can reference it without a policy object.
        """
        plan = self._adopted.get(plan_id)
        if plan is None:
            with self.watch.measure("adopt"):
                plan = self._plan_from_spec(fields, stage_specs)
            self._adopted[plan_id] = plan
        return plan

    @property
    def adopted_plans(self) -> int:
        """Number of plans adopted from wire payloads (worker introspection)."""
        return len(self._adopted)

    def query_plan(self, plan_id: object, inputs: Iterable[Packet]) -> Answer:
        """The batched answer of an adopted plan (see :meth:`output_distributions`)."""
        plan = self._adopted.get(plan_id)
        if plan is None:
            raise KeyError(
                f"no adopted plan {plan_id!r}: ship its payload with adopt_plan first"
            )
        return self._run_plan(plan, list(inputs))

    def _build_plan(self, policy: s.Policy) -> QueryPlan:
        """Loop-free runs become FDD stages, loops loop stages.

        A run that ends in the loop's own body parts — the very objects,
        as a network model's ``in ; hop ; while ¬out do hop`` has them —
        is ``b ; while g do b``: the loop stage runs it as a *do-while*
        (:attr:`_LoopStage.do_while`) and the run keeps only what comes
        before the body, so the hop is compiled once.  Guard and body are
        compiled before that run: the body's spine ranks the packet's
        location first, where a head of local initialisations would
        otherwise rank its flags.
        """
        self.ast_compilations += 1
        parts: Sequence[s.Policy] = (
            policy.parts if isinstance(policy, s.Seq) else [policy]
        )
        stages: list[Body | _LoopStage] = []
        pending: list[s.Policy] = []

        def flush() -> None:
            if not pending:
                return
            body = self._compiler.per_role(s.seq(*pending))
            if body is not self.manager.true_leaf:
                stages.append(body)
            pending.clear()

        for part in parts:
            if not isinstance(part, s.WhileDo):
                pending.append(part)
                continue
            guard_fdd = self._compiler.compile(part.guard)
            body = self._compiler.per_role(part.body)
            hop = part.body.parts if isinstance(part.body, s.Seq) else (part.body,)
            start = len(pending) - len(hop)
            do_while = start >= 0 and all(
                mine is theirs for mine, theirs in zip(pending[start:], hop)
            )
            if do_while:
                del pending[start:]
            flush()
            domains = _mentioned(body)
            for field, values in matrix_domains(guard_fdd).items():
                domains.setdefault(field, set()).update(values)
            stages.append(
                _LoopStage(
                    part,
                    guard_fdd,
                    body,
                    {f: tuple(sorted(v)) for f, v in domains.items()},
                    do_while,
                    self.watch,
                )
            )
        flush()
        return QueryPlan(policy, _stages(stages))

    # -- queries ----------------------------------------------------------------
    def output_distributions(self, policy: s.Policy, inputs: Iterable[Packet]) -> Answer:
        """Per-ingress output distributions, batched over the whole set.

        All ingress packets advance through the plan together, so every
        loop is factorized at most once for the union of their entry
        states (versus one incremental re-solve per packet in the
        forward interpreter).  The result is one
        :class:`~repro.core.answer.Answer`: a mapping from ingress packet
        to :class:`Dist` whose rows are arrays over one outcome table; a
        ``Dist`` is built when it is looked up.
        """
        return self._run_plan(self.plan(policy), list(inputs))

    def _run_plan(self, plan: QueryPlan, packets: list[Packet]) -> Answer:
        """Advance a batch of ingress packets through a compiled plan."""
        with self.watch.measure("query"):
            for answer in self._stagewise(plan, packets):
                pass
        return answer

    def _stagewise(self, plan: QueryPlan, packets: list[Packet]) -> Iterator[Answer]:
        """The batch before the first stage and after each stage, in turn.

        The batch is an ingress × outcome matrix from the start.  Its
        ingress packets are classified once, over the plan's layout; from
        there its outcome columns stay classes
        (:class:`~repro.core.fdd.flat.Columns`).  At each stage the
        columns' classes move down to the stage's layout
        (:attr:`QueryPlan.projections`), the stage takes the rows of the
        new ones in one call — a loop stage solving the classes they enter
        through first — the columns follow their rows back up to the
        stage's outcome columns, and the ingress rows follow by one sparse
        product.  Only the last stage's columns are decoded to packets,
        each distinct (class, residual) once; an earlier answer's
        outcomes are its :class:`~repro.core.fdd.flat.Columns`.
        """
        answer = Answer.identity(packets)
        yield answer
        if not plan.stages:
            return
        projections = plan.projections
        columns = Columns.classify(answer.outcomes, projections[0].plan)
        for projection, stage in zip(projections, plan.stages):
            classes = projection.down(columns.codes)
            found, appended = stage.rows_of(classes, columns.drop, self.class_limit)
            self.assembly_rows += appended
            indptr, indices, data, columns = columns.follow(projection, classes, stage.rows, found)
            if stage is plan.stages[-1]:
                outcomes = columns.decode()
                decoded = len(outcomes) - int(columns.drop.sum())
                answer = answer.then(outcomes, indptr, indices, data, decoded)
            else:
                answer = answer.then(columns, indptr, indices, data)
            yield answer

    def output_distribution(
        self, policy: s.Policy, inputs: Packet | Dist[Outcome] | Iterable[Packet]
    ) -> Dist[Outcome]:
        """Output distribution on a packet, a distribution, or a uniform ingress set."""
        return mix_outputs(inputs, lambda packets: self.output_distributions(policy, packets))

    # -- network-model conveniences ------------------------------------------------
    def delivery_probabilities(self, model) -> dict[Packet, float]:
        """Per-ingress delivery probability of a network model (batched)."""
        answer = self.output_distributions(model.policy, model.ingress_packets)
        return {
            packet: float(delivered_mass(answer.row(packet), model.delivered))
            for packet in answer
        }

    def certainly_delivers(self, model) -> bool:
        """Whether every ingress packet is delivered with probability one.

        The model's own structural analysis
        (:meth:`~repro.network.model.NetworkModel.certainly_delivers`):
        exact, and no solve.  A solved probability cannot decide this —
        a loss of 1e-10 is within any float tolerance.
        """
        return model.certainly_delivers()

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock time per phase.

        ``"compile"`` covers FDD compilation and plan building;
        ``"query"`` is end-to-end query time, *inclusive* of its
        ``"assemble"`` (vectorized reachable-matrix construction),
        ``"factorize"`` (``splu`` of a growth step's ``I − Q`` block),
        and ``"solve"`` (batched right-hand-side solves) sub-phases,
        which are also reported separately.
        """
        return dict(self.watch.sections)

    def solver_stats(self) -> dict[str, int]:
        """Cumulative numeric-kernel counters for introspection.

        ``factorizations``/``schur_updates`` aggregate over every loop
        stage of every cached or adopted plan (see
        :class:`~repro.core.markov.IncrementalAbsorptionSolver`);
        ``assembly_rows`` counts the classes written onto a loop stage's
        chain, each once however the seeds
        arrived; ``loop_free_walks`` the class rows loop-free stages
        took from their diagrams, across :meth:`reset_solutions`;
        ``frontier_steps`` the BFS frontiers the loop stages' chains
        expanded, one array step each (the chains' BFS depth); ``fdd_nodes``,
        ``fdd_memo_<operation>`` and the compile's work counts
        (``leaf_actions_composed``, ``compile_roles``, ``role_instances``)
        flatten this replica's :meth:`~repro.core.fdd.node.FddManager.stats`.  Worker processes
        ship this dict home in their stats blob, so pool
        ``worker_reports()`` and CLI stats can show where replica time
        and memory go.
        """
        factorizations = 0
        schur_updates = 0
        walks = 0
        frontier_steps = 0
        plans = [plan for _policy, plan in self._plans.values()]
        plans.extend(self._adopted.values())
        for plan in plans:
            walks += sum(stage.walks for stage in plan.stages if isinstance(stage, _FddStage))
            for stage in plan.loop_stages:
                factorizations += stage.factorizations
                schur_updates += stage.schur_updates
                frontier_steps += stage.chain.frontier_steps
        fdd = self.manager.stats()
        return {
            "factorizations": factorizations,
            "schur_updates": schur_updates,
            "assembly_rows": self.assembly_rows,
            "loop_free_walks": walks,
            "frontier_steps": frontier_steps,
            "fdd_nodes": fdd["nodes"],
            **{f"fdd_memo_{name}": size for name, size in fdd["memo"].items()},
            **self.manager.counters,
        }

    @property
    def compiler(self) -> Compiler:
        return self._compiler

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (nothing to release).

        The matrix backend owns no worker pool; ``close()`` is what a
        session calls on the backend it built.
        """

    def __enter__(self) -> "MatrixBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def warm(self, policy: s.Policy, inputs: Iterable[Packet]) -> "MatrixBackend":
        """Pre-compile ``policy`` and pre-solve its loops for an ingress set.

        Calling this once with the *union* of an expected query stream's
        ingress packets factorizes every loop for the whole set up front,
        so subsequent slice-wise :meth:`output_distributions` calls hit
        the row/solution caches instead of growing the system query by
        query.  (Sessions achieve the same through
        ``AnalysisSession.warm``, which additionally populates the
        session-level result cache.  A *pooled* session never calls this
        directly outside a replica lease: warmup takes the same
        per-replica lease path as query execution, so it cannot race a
        concurrent ``query_batch`` on the same destination.)
        """
        self.output_distributions(policy, inputs)
        return self

    def clear_caches(self) -> None:
        """Drop cached plans and loop solutions.

        A shared backend accumulates one plan (plus loop caches) per
        distinct policy queried; long-lived sweeps over many models can
        call this between batches to bound memory.  Compiled FDD nodes
        stay interned in the manager.
        """
        self._plans.clear()
        self._plan_keys.clear()
        self._adopted.clear()

    def reset_solutions(self) -> None:
        """Drop per-loop solver state while keeping compiled plans.

        Every cached plan keeps its compiled stage FDDs, their class
        layouts, their flat diagrams and the plan's code-translation arrays
        (:attr:`QueryPlan.projections`), but each stage is rebuilt empty
        (``fresh()``): a loop stage's chain (classes, index, rows) and
        solved rows and every stage's class rows go with the old stage —
        nothing keyed by a packet or a class survives.  This bounds solver memory for
        long-lived sessions without paying recompilation, and gives
        benchmarks a repeatable solver-path measurement (every pass after
        a reset re-runs exploration and factorization, not just cache
        lookups).
        """
        plans = [plan for _policy, plan in self._plans.values()]
        plans.extend(self._adopted.values())
        for plan in plans:
            plan.stages[:] = [stage.fresh() for stage in plan.stages]
