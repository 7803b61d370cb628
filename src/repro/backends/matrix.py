"""The batched sparse-matrix query backend (§5–§6).

This backend realises the paper's performance story at query time: a
network model compiles *once* into sparse stochastic matrices over
symbolic packet classes, the absorbing-chain system ``I - Q`` of each
loop is factorized *once* with ``splu``, and every ingress query — output
distributions, hop-count CDFs, delivery/resilience probabilities — is
answered by batched multi-RHS solves against the cached factorization.

Compared with the native backend (which re-solves a growing absorption
system for every new ingress seed), the matrix backend:

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

Every stage runs on symbolic classes: a packet is classified once, its
class's row is taken once (a loop-free diagram walked, or a solved loop
row decoded), and an outcome class is decoded to a packet once per
batch.  A query returns one :class:`~repro.core.answer.Answer`, an
ingress × outcome matrix built by one sparse product per stage; a
``Dist`` is built only when a caller looks one up.  Loop solutions are
float64, like the native backend's LU path, and so are the loop-free
stages of a plan with a loop; a plan without one keeps the exact
rational leaf weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core import syntax as s
from repro.core.answer import Answer, delivered_mass
from repro.core.compiler import Compiler, leaf_holds
from repro.core.distributions import Dist
from repro.core.fdd.flat import ClassLayout, ClassRow, Codes, FlatDiagram
from repro.core.fdd.matrix import (
    ClassChain,
    SymbolicPacket,
    TransitionMatrix,
    class_transition,
    fdd_to_matrix,
    matrix_domains,
)
from repro.core.fdd.node import (
    FddManager,
    FddNode,
    leaf_of,
    node_from_spec,
    node_size,
    node_to_spec,
)
from repro.core.interpreter import Outcome
from repro.core.markov import IncrementalAbsorptionSolver
from repro.core.packet import DROP, Packet, _DropType
from repro.utils.timing import Stopwatch


class _ClassStage:
    """What both stage kinds share: packets in, symbolic classes through, packets out.

    A class is a row of int codes over the stage's ``layout``
    (:class:`~repro.core.fdd.flat.ClassLayout`, the ``domains`` fields
    sorted).  A packet is classified over it (its class and its
    *residual*, see :func:`_concretize`), the stage's row of that class
    (over classes and :data:`DROP`) says where its mass goes, and an
    outcome class is decoded with the packet's residual back into a
    packet.  Each of the three is memoised: classification once per
    distinct packet, a row once per class — the rows of all of one
    batch's new classes from one call, :meth:`take_rows` — and a decode
    once per (class, residual).  The memos live as long as the stage:
    :meth:`MatrixBackend.reset_solutions` replaces every stage with its
    ``fresh()`` copy, which keeps only what belongs to the compiled
    diagrams — the layout and the diagrams flattened over it
    (:class:`~repro.core.fdd.flat.FlatDiagram`).
    """

    def __init__(self, domains: dict[str, tuple[int, ...]], layout: ClassLayout | None = None):
        self.domains = domains
        self.layout = layout if layout is not None else ClassLayout(domains)
        self._class_cache: dict[Packet, tuple[Codes, Packet]] = {}
        # (class, residual) -> concrete output packet.
        self._concrete_cache: dict[tuple[Codes, Packet], Packet] = {}
        self._rows: dict[Codes, ClassRow] = {}

    def take_rows(self, classes: list[Codes]) -> None:  # pragma: no cover - abstract
        """Put the rows of ``classes`` (none held yet) into ``_rows``."""
        raise NotImplementedError

    def classify_packet(self, packet: Packet) -> Codes:
        """The class of a concrete packet over this stage's layout."""
        return self._classified(packet)[0]

    def _classified(self, packet: Packet) -> tuple[Codes, Packet]:
        """The class of ``packet`` and its residual (see :func:`_concretize`)."""
        cached = self._class_cache.get(packet)
        if cached is None:
            cached = self._class_cache[packet] = self.layout.classify(packet)
        return cached

    def classify_columns(
        self, columns: Sequence[Outcome]
    ) -> tuple[list[tuple[Codes, Packet] | None], list[Codes]]:
        """Each column's (class, residual) — ``None`` for drop — and the
        distinct classes among them without a row yet, in column order."""
        classified = [None if column is DROP else self._classified(column) for column in columns]
        rows = self._rows
        new = dict.fromkeys(
            pair[0] for pair in classified if pair is not None and pair[0] not in rows
        )
        return classified, list(new)

    def concretize(self, cls: Codes, base: Packet) -> Packet:
        """Memoised :func:`_concretize`, keyed by ``cls`` and ``base``'s residual."""
        return self._concrete(cls, self._classified(base)[1])

    def _concrete(self, cls: Codes, residual: Packet) -> Packet:
        cached = self._concrete_cache.get((cls, residual))
        if cached is None:
            cached = self._concrete_cache[cls, residual] = _concretize(
                self.layout.assignments(cls), residual
            )
        return cached


class _FddStage(_ClassStage):
    """A loop-free policy segment, compiled to one canonical FDD.

    It runs on classes over the values the diagram mentions, its rows kept
    until the stage is reset.  ``walks`` counts the rows taken, across
    resets.  Rows are float64 in a plan with a loop stage, which floats
    every mass anyway — one walk of ``flat`` for all of a batch's new
    classes — and exact leaf weights
    (:func:`~repro.core.fdd.matrix.class_transition`, per class) in a
    plan without one.
    """

    def __init__(self, fdd: FddNode, exact: bool, flat: FlatDiagram | None = None):
        domains = matrix_domains(fdd)
        super().__init__(
            {field: tuple(sorted(values)) for field, values in domains.items()},
            flat.layout if flat is not None else None,
        )
        self.fdd = fdd
        self.exact = exact
        self.walks = 0
        if flat is None and not exact:
            flat = FlatDiagram(fdd, self.layout)
        self.flat = flat

    def fresh(self) -> "_FddStage":
        """This stage's diagram and flat form, nothing classified, walked or decoded."""
        stage = _FddStage(self.fdd, self.exact, self.flat)
        stage.walks = self.walks
        return stage

    def take_rows(self, classes: list[Codes]) -> None:
        """Where the diagram sends each of ``classes``: one walk for all of them."""
        self.walks += len(classes)
        if not self.exact:
            self._rows.update(zip(classes, self.flat.rows(classes)))
            return
        layout = self.layout
        for cls in classes:
            dist = class_transition(self.fdd, SymbolicPacket._from_sorted(layout.pairs(cls)))
            outcomes, masses = zip(*dist.items())
            self._rows[cls] = ClassRow(
                tuple(DROP if out is DROP else layout.encode(out.values) for out in outcomes),
                masses,
            )


class _LoopStage(_ClassStage):
    """A ``while`` loop with its one indexed chain and what was solved on it.

    ``chain`` (:class:`~repro.core.fdd.matrix.ClassChain`) owns the
    ``class -> int`` index: the classes reached from every seed so far,
    their body rows as CSR buffers over those ints, a transient flag per
    class (the guard holds), explored one BFS frontier at a time over the
    body flattened on the stage's layout; ``guard`` is the guard
    flattened on it.  ``solver``
    (:class:`~repro.core.markov.IncrementalAbsorptionSolver`) is fed the
    rows each exploration appended, by index, and keeps the solved rows as
    arrays over its outcome index — so new ingress classes cost their own
    exploration and one factorization of the newly discovered subsystem,
    already-solved classes acting as absorbing gateways, and no class is
    expanded, indexed or factorized twice.  ``solutions`` holds a solved
    row as a :class:`~repro.core.fdd.flat.ClassRow` over outcome classes,
    from the first time a packet entered through its class, and ``_rows``
    the stage's row of every class it was asked about.  All of it but the
    layout and the flat diagrams dies with the stage
    (:meth:`MatrixBackend.reset_solutions`).
    """

    def __init__(
        self,
        loop: s.WhileDo | None,
        guard_fdd: FddNode,
        body_fdd: FddNode,
        domains: dict[str, tuple[int, ...]],
        do_while: bool = False,
        watch: Stopwatch | None = None,
        flats: tuple[FlatDiagram, FlatDiagram] | None = None,
    ):
        super().__init__(domains, flats[0].layout if flats is not None else None)
        #: The source AST of the loop, when this stage was built from one.
        #: Purely informational: query evaluation only ever consults the
        #: compiled ``guard_fdd`` (see :meth:`entered_by`), so stages
        #: rebuilt from manager-independent specs — in a worker process —
        #: carry ``None`` here and behave identically.
        self.loop = loop
        self.guard_fdd = guard_fdd
        self.body_fdd = body_fdd
        #: The stage runs ``body ; while guard do body``: a class the
        #: guard fails on takes one ``body_fdd`` row before the loop (on
        #: any other the loop already begins with the body).
        self.do_while = do_while
        self.watch = watch
        body, self.guard = flats if flats is not None else (
            FlatDiagram(body_fdd, self.layout),
            FlatDiagram(guard_fdd, self.layout),
        )
        self.chain = ClassChain(body_fdd, self.layout, body)
        self.solver = IncrementalAbsorptionSolver(watch=watch)
        self.solutions: dict[Codes, ClassRow] = {}
        self._guard_leaves: dict[int, bool] = {}
        self.seeds: set[Codes] = set()
        # Per class asked about: whether the guard holds on it.
        self._enters: dict[Codes, bool] = {}
        # The do-while's first body row of a class the guard fails on, and
        # per outcome whether it enters the loop.
        self._first_rows: dict[Codes, tuple[ClassRow, tuple[bool, ...]]] = {}

    def fresh(self) -> "_LoopStage":
        """This stage's compiled loop and its flat diagrams, nothing
        explored, solved or memoised."""
        return _LoopStage(
            self.loop,
            self.guard_fdd,
            self.body_fdd,
            self.domains,
            self.do_while,
            self.watch,
            (self.chain.flat, self.guard),
        )

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

    def entered_by(self, packet: Packet) -> bool:
        """Whether a concrete packet enters the loop (guard holds on it).

        Evaluated on the *compiled* guard FDD via the packet's symbolic
        class — never on the guard AST — so stages rebuilt from specs
        (which carry no AST) answer exactly like freshly compiled ones.
        The loop's domains include every value the guard tests (they are
        built with the guard's values folded in), so classification is
        lossless for guard evaluation: a field value outside the domain
        classifies as a wildcard, which fails every equality test, just
        as the concrete value would.
        """
        return bool(self.guard.holds(self.layout.array([self.classify_packet(packet)]))[0])

    @property
    def seed_order(self) -> list[SymbolicPacket]:
        """All seeds seen so far, in class order."""
        return [self.chain.decode(cls) for cls in sorted(self.seeds)]

    def entries(self, classes: list[Codes]) -> set[Codes]:
        """The classes ``classes`` (none with a row yet) enter the chain through.

        A class the guard holds on enters through itself; in a do-while,
        one it fails on enters through the classes its first body row
        reaches that the guard holds on.  One guard walk for ``classes``,
        one body walk for the do-while's first rows and one guard walk for
        their outcomes.
        """
        enters = self.guard.holds(self.layout.array(classes)).tolist()
        self._enters.update(zip(classes, enters))
        wanted = {cls for cls, holds in zip(classes, enters) if holds}
        if self.do_while:
            failing = [cls for cls, holds in zip(classes, enters) if not holds]
            self._take_first_rows(failing)
            for cls in failing:
                row, entering = self._first_rows[cls]
                wanted.update(
                    successor for successor, holds in zip(row.outcomes, entering) if holds
                )
        return wanted

    def _take_first_rows(self, classes: list[Codes]) -> None:
        missing = [cls for cls in classes if cls not in self._first_rows]
        if not missing:
            return
        rows = self.chain.flat.rows(missing)
        successors = [outcome for row in rows for outcome in row.outcomes if outcome is not DROP]
        holds = iter(self.guard.holds(self.layout.array(successors)).tolist())
        for cls, row in zip(missing, rows):
            self._first_rows[cls] = (
                row,
                tuple(outcome is not DROP and next(holds) for outcome in row.outcomes),
            )

    def read_solutions(self, classes: Iterable[Codes]) -> None:
        """Decode the absorption rows of solved ``classes`` not decoded yet, in one read.

        Mass that reaches no absorbing class diverges; the guarded limit
        semantics assigns it to drop.
        """
        pending = [cls for cls in classes if cls not in self.solutions]
        if not pending:
            return
        chain = self.chain
        states = chain.states_of(self.layout.array(pending))
        rows = self.solver.absorbed_many(states.tolist())
        reached = sorted({j for outcomes, _masses, _lost in rows for j in outcomes if j})
        outcome_of: dict[int, Codes | _DropType] = dict(zip(reached, chain.codes_of(reached)))
        outcome_of[0] = DROP
        for cls, (outcomes, masses, lost) in zip(pending, rows):
            if lost:  # onto state 0, drop
                if 0 in outcomes:
                    masses[outcomes.index(0)] += lost
                else:
                    outcomes.append(0)
                    masses.append(lost)
            self.solutions[cls] = ClassRow(tuple([outcome_of[j] for j in outcomes]), tuple(masses))

    def take_rows(self, classes: list[Codes]) -> None:
        """The stage's output on each of ``classes``, over outcome classes.

        The absorption row when the guard holds; in a do-while, the first
        body row with every successor the guard holds on replaced by its
        absorption row; else the class itself (the loop does not run).
        :meth:`entries` has classified ``classes`` and the classes they
        enter through are solved and read.
        """
        for cls in classes:
            if self._enters[cls]:
                row = self.solutions[cls]
            elif self.do_while:
                first, entering = self._first_rows[cls]
                weights: dict[Codes | _DropType, float] = {}
                for successor, weight, enters in zip(first.outcomes, first.probs, entering):
                    if enters:
                        for outcome, mass in self.solutions[successor].items():
                            weights[outcome] = weights.get(outcome, 0.0) + weight * mass
                    else:
                        weights[successor] = weights.get(successor, 0.0) + weight
                row = ClassRow(tuple(weights), tuple(weights.values()))
            else:
                row = ClassRow((cls,), (1.0,))
            self._rows[cls] = row


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

    @property
    def loop_stages(self) -> list[_LoopStage]:
        return [stage for stage in self.stages if isinstance(stage, _LoopStage)]


def _stages(parts: list[FddNode | _LoopStage]) -> list[_FddStage | _LoopStage]:
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
        Bound on the number of symbolic classes explored per loop (and on
        full-domain conversions via :meth:`transition_matrix`).
    exact:
        Accepted for registry symmetry with the native backend but must
        stay ``False``: the batched solver is float64 by design (use the
        native backend for exact rational loop solving).
    """

    exact: bool = False
    class_limit: int = 1_000_000
    watch: Stopwatch = field(default_factory=Stopwatch)

    def __post_init__(self) -> None:
        if self.exact:
            raise ValueError(
                "MatrixBackend is float64-only (splu); use NativeBackend(exact=True) "
                "for exact rational arithmetic"
            )
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
        # TransitionMatrix cache keyed by canonical FDD identity: FDDs are
        # hash-consed, so semantically equal policies share one matrix.
        self._matrices: dict[FddNode, TransitionMatrix] = {}
        # Manager-independent canonical stage keys (see plan_key).
        self._plan_keys: dict[int, tuple[s.Policy, tuple]] = {}

    # -- compilation ----------------------------------------------------------
    def compile(self, policy: s.Policy) -> FddNode:
        """Compile ``policy`` to its canonical FDD (timed as ``"compile"``)."""
        with self.watch.measure("compile"):
            return self._compiler.compile(policy)

    def fdd_size(self, policy: s.Policy) -> int:
        """Number of distinct nodes in the compiled FDD of ``policy``."""
        return node_size(self.compile(policy))

    def transition_matrix(self, policy: s.Policy) -> TransitionMatrix:
        """The full-domain sparse stochastic matrix of a (loop-free) policy.

        The result is cached by the canonical FDD of the policy, so any
        two semantically equal policies share a single matrix.
        """
        fdd = self.compile(policy)
        cached = self._matrices.get(fdd)
        if cached is None:
            with self.watch.measure("assemble"):
                cached = fdd_to_matrix(fdd, limit=self.class_limit)
            self.assembly_rows += cached.assembled_rows
            self._matrices[fdd] = cached
        return cached

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
        stages: list[FddNode | _LoopStage] = []
        pending: list[s.Policy] = []

        def flush() -> None:
            if not pending:
                return
            fdd = self._compiler.compile(s.seq(*pending))
            if fdd is not self.manager.true_leaf:
                stages.append(fdd)
            pending.clear()

        for part in parts:
            if not isinstance(part, s.WhileDo):
                pending.append(part)
                continue
            guard_fdd = self._compiler.compile(part.guard)
            body_fdd = self._compiler.compile(part.body)
            body = part.body.parts if isinstance(part.body, s.Seq) else (part.body,)
            start = len(pending) - len(body)
            do_while = start >= 0 and all(
                mine is theirs for mine, theirs in zip(pending[start:], body)
            )
            if do_while:
                del pending[start:]
            flush()
            domains = matrix_domains(body_fdd, extra_values=matrix_domains(guard_fdd))
            stages.append(
                _LoopStage(
                    part,
                    guard_fdd,
                    body_fdd,
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
        interpreter-based native path).  The result is one
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

        The batch is an ingress × outcome matrix from the start: each stage
        maps the current outcome columns to its own (:func:`_advance`) and
        the rows follow by one sparse product.  A stage first takes the rows
        of the columns' new classes in one call; a loop stage solves the
        classes they enter through before.
        """
        answer = Answer.identity(packets)
        yield answer
        for stage in plan.stages:
            classified, new = stage.classify_columns(answer.outcomes)
            if new:
                if isinstance(stage, _LoopStage):
                    entries = stage.entries(new)
                    self._solve_loop(stage, entries)
                    stage.read_solutions(entries)
                stage.take_rows(new)
            answer = _advance(answer, stage, classified)
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
        chain (or into a full-domain matrix), each once however the seeds
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
        """Release backend resources (registry/session API symmetry).

        The matrix backend owns no worker pool; ``close()`` exists so
        sessions can manage any registry backend uniformly.
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
        """Drop cached plans, matrices, and loop solutions.

        A shared backend accumulates one plan (plus loop caches) per
        distinct policy queried; long-lived sweeps over many models can
        call this between batches to bound memory.  Compiled FDD nodes
        stay interned in the manager.
        """
        self._plans.clear()
        self._matrices.clear()
        self._plan_keys.clear()
        self._adopted.clear()

    def reset_solutions(self) -> None:
        """Drop per-loop solver state while keeping compiled plans.

        Every cached plan keeps its compiled stage FDDs, their class
        layouts and their flat diagrams, but each stage is
        rebuilt empty (``fresh()``): a loop stage's chain (classes, index,
        rows) and solved rows, a loop-free stage's class rows, and every
        per-packet memo go with the old stage — nothing keyed by a packet
        or a class survives.  This bounds solver memory for
        long-lived sessions without paying recompilation, and gives
        benchmarks a repeatable solver-path measurement (every pass after
        a reset re-runs exploration and factorization, not just cache
        lookups).
        """
        plans = [plan for _policy, plan in self._plans.values()]
        plans.extend(self._adopted.values())
        for plan in plans:
            plan.stages[:] = [stage.fresh() for stage in plan.stages]

    # -- stage application ---------------------------------------------------------
    def _solve_loop(self, stage: _LoopStage, entries: set[Codes]) -> None:
        """Put every entry class on the stage's chain, solved.

        The entries the chain does not hold are its new seeds, taken in
        class order: exploration appends them and what they newly reach,
        one BFS frontier per step, and the solver factorizes exactly the
        rows that were appended — classes solved for an earlier seed are
        absorbing gateways whose final rows are composed in — so each
        class is expanded once and participates in one, small,
        factorization however the seeds arrive.  Solved rows are final:
        exploration closes forward reachability, so a solved class never
        gains a successor.
        """
        if not entries:
            return
        chain = stage.chain
        ordered = sorted(entries)
        codes = stage.layout.array(ordered)
        fresh = chain.states_of(codes) < 0
        if not fresh.any():
            return
        known = len(chain)
        with self.watch.measure("assemble"):
            stored = chain.explore(
                codes[fresh],
                absorbing=lambda rows: ~stage.guard.holds(rows),
                limit=self.class_limit,
            )
            rows = chain.rows_from(stored)
        stage.seeds.update(cls for cls, new in zip(ordered, fresh.tolist()) if new)
        self.assembly_rows += len(chain) - known
        # The solver reports its own "factorize"/"solve" sections on this
        # backend's stopwatch (it was constructed with watch=self.watch),
        # so no outer measurement wraps it — the phases stay disjoint.
        if len(rows[0]):
            stage.solver.grow(*rows)


#: Where drop goes through any stage: nowhere else.
_DROP_ROW = ClassRow((DROP,), (1.0,))


def _advance(
    answer: Answer, stage: _ClassStage, classified: list[tuple[Codes, Packet] | None]
) -> Answer:
    """``answer`` followed by ``stage``, one row per outcome column.

    ``classified`` is each column's (class, residual) —
    :meth:`_ClassStage.classify_columns`, ``None`` for drop — and the
    stage holds every class's row.  A column's row is read off by the
    column's residual; an outcome (class, residual) is decoded to a
    packet once per batch and becomes one column of the result, however
    many columns and ingresses reach it.
    """
    at_by_residual: dict[Packet | None, dict[Codes | _DropType, int]] = {}
    columns: dict[Outcome, int] = {}
    outcomes: list[Outcome] = []
    indptr, indices, data = [0], [], []
    decoded = 0
    rows = stage._rows
    for pair in classified:
        if pair is None:
            row, residual = _DROP_ROW, None
        else:
            row, residual = rows[pair[0]], pair[1]
        at = at_by_residual.get(residual)
        if at is None:
            at = at_by_residual[residual] = {}
        for successor in row.outcomes:
            if successor not in at:
                if successor is DROP:
                    outcome = DROP
                else:
                    outcome = stage._concrete(successor, residual)
                    decoded += 1
                at[successor] = columns.setdefault(outcome, len(outcomes))
                if at[successor] == len(outcomes):
                    outcomes.append(outcome)
        indices.extend([at[successor] for successor in row.outcomes])
        data.extend(row.probs)
        indptr.append(len(indices))
    return answer.then(outcomes, indptr, indices, data, decoded)


def _concretize(assignments: Mapping[str, int], base: Packet) -> Packet:
    """The concrete output packet of a class for input packet ``base``.

    ``assignments`` are the class's concretely-valued fields
    (:meth:`~repro.core.fdd.flat.ClassLayout.assignments`): they are
    written onto the packet; wildcard fields were untouched by the stage
    (a wildcard can only be preserved, never created), so the packet
    keeps its own value — or stays without the field — exactly like the
    forward interpreter.

    Actions write only mentioned values, so a field that ``base``'s own
    class holds concretely is concrete in every class the stage reaches
    from it and is overwritten here.  The result therefore depends on
    ``base`` only through its *residual* — ``base`` restricted to the
    fields its class holds as wildcards or not at all (one and the same
    for every ingress of a network model) — and may be computed from, and
    memoised by, the residual alone.  That holds for the classes of
    ``base``'s own row — a diagram's one step or a loop's solution —
    which is all a stage ever asks for.
    """
    merged = dict(base.items())
    merged.update(assignments)
    return Packet._from_sorted_items(tuple(sorted(merged.items())))
