"""Reference implementations kept as test oracles, not as library code.

The library has one implementation of each kernel; what it replaced
lives here, verbatim, so the tests (and the fig7 harness, which records
both kernels' absolute seconds) can hold the fast path to the slow
one's answers.  The dense Gauss–Jordan oracle of the exact absorption
solver sits beside its tests in ``test_exact_solver.py``; the float
solver's dict-based construction is :func:`solve_absorption_reference`;
the per-packet query path the batched answer replaced is
:func:`per_packet_distributions`; the per-packet handoff between stages
the class-code columns replaced is :func:`class_handoff_reference`; the
class-by-class chain walk the frontier walk replaced is
:func:`class_chain_reference`.  Model
construction's one-pass builders (``Policy._scan``, integer-checked
``choice``, per-switch ``Topology.program``) are held to the
``walk()``-based field scans,
the ``Fraction``-summed :func:`choice_reference` and
:func:`topology_program_reference`.

Figures 9 and 10 compare McNetKAT with two general-purpose engines.
Their stand-ins live here too, as differential oracles and as the
state-space counts fig10 reports: :class:`MiniDtmc` runs the §5.2 PRISM
translation over its explicit valuations, exactly, and
:class:`ExactInferenceBaseline` is a Bayonet-style dense interpreter
that unrolls loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, MutableMapping

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import splu

from repro.backends.prism import PrismModel, translate_policy
from repro.backends.prism.automaton import Automaton, Edge, _reachable_states
from repro.core import syntax as s
from repro.core.answer import Answer
from repro.core.compiler import GuardedFragmentError
from repro.core.distributions import Dist
from repro.core.fdd.flat import ClassRow
from repro.core.fdd.matrix import (
    DomainTooLargeError,
    SymbolicPacket,
    TransitionMatrix,
    class_transition,
    enumerate_classes,
    matrix_domains,
    project_class,
)
from repro.core.fdd.node import FddNode, leaf_of, output_distribution
from repro.core.fields import FieldTable
from repro.core.interpreter import eval_predicate
from repro.core.markov import (
    SOLVER_TOLERANCE,
    AbsorptionResult,
    _states_reaching_absorption,
    solve_absorption_exact,
)
from repro.core.packet import DROP, Packet, PacketUniverse, _DropType
from repro.topology.graph import Topology


def fdd_to_matrix_reference(
    node: FddNode,
    extra_values: Mapping[str, Iterable[int]] | None = None,
    limit: int | None = 1_000_000,
    seeds: Iterable[SymbolicPacket] | None = None,
    absorbing_when: Callable[[SymbolicPacket], bool] | None = None,
    row_cache: MutableMapping[SymbolicPacket, Dist] | None = None,
) -> TransitionMatrix:
    """Pre-vectorization matrix assembly, kept verbatim as the oracle of
    :func:`repro.core.fdd.matrix.fdd_to_matrix`.

    Two passes (BFS exploration, then per-row assembly), ``Dist``-valued
    rows via :func:`class_transition`, and per-nonzero ``list.append`` —
    including the historical quirk that without a ``row_cache`` every
    class's row is computed twice.
    """
    domains = matrix_domains(node, extra_values)

    if seeds is None:
        classes = enumerate_classes(domains, limit=limit)
    else:
        frontier = [project_class(cls, domains) for cls in seeds]
        seen: dict[SymbolicPacket, None] = dict.fromkeys(frontier)
        order: list[SymbolicPacket] = list(seen)
        cursor = 0
        while cursor < len(order):
            cls = order[cursor]
            cursor += 1
            if absorbing_when is not None and absorbing_when(cls):
                continue
            row = row_cache.get(cls) if row_cache is not None else None
            if row is None:
                row = class_transition(node, cls)
                if row_cache is not None:
                    row_cache[cls] = row
            for outcome in row.support():
                if isinstance(outcome, _DropType) or outcome in seen:
                    continue
                seen[outcome] = None
                order.append(outcome)
            if limit is not None and len(order) > limit:
                raise DomainTooLargeError(
                    f"reachable symbolic space exceeds the limit {limit}"
                )
        classes = order

    index = {cls: i for i, cls in enumerate(classes)}
    drop_index = len(classes)

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, cls in enumerate(classes):
        if absorbing_when is not None and absorbing_when(cls):
            rows.append(i)
            cols.append(i)
            data.append(1.0)
            continue
        row = row_cache.get(cls) if row_cache is not None else None
        if row is None:
            row = class_transition(node, cls)
            if row_cache is not None:
                row_cache[cls] = row
        for outcome, prob in row.items():
            j = drop_index if isinstance(outcome, _DropType) else index[outcome]
            rows.append(i)
            cols.append(j)
            data.append(float(prob))
    # The drop row is absorbing.
    rows.append(drop_index)
    cols.append(drop_index)
    data.append(1.0)

    size = len(classes) + 1
    matrix = csr_matrix((data, (rows, cols)), shape=(size, size))
    return TransitionMatrix(
        classes=classes,
        matrix=matrix,
        domains={f: tuple(sorted(v)) for f, v in domains.items()},
    )


def class_row_reference(node: FddNode, cls: SymbolicPacket) -> list[tuple[object, float]]:
    """The float row of one class, walked class by class: the leaf by
    :func:`leaf_of`, each action applied to the class, a repeated
    successor merged at its first place, its probabilities summed in
    action order from ``0.0``."""
    merged: dict = {}
    for action, prob in leaf_of(node, dict(cls.values).get).dist.items():
        outcome = cls.apply_action(action)
        merged[outcome] = merged.get(outcome, 0.0) + float(prob)
    return list(merged.items())


def class_chain_reference(
    node: FddNode,
    seeds: Iterable[SymbolicPacket],
    absorbing_when: Callable[[SymbolicPacket], bool] | None = None,
) -> tuple[list[SymbolicPacket], dict[SymbolicPacket, list[tuple[object, float]]]]:
    """The chain walk :class:`~repro.core.fdd.matrix.ClassChain` made before
    it explored a frontier at a time, kept as its oracle.

    First in, first out from ``seeds``, one class at a time: a class
    ``absorbing_when`` holds on is not expanded, any other takes
    :func:`class_row_reference` and appends the successors it sees first.
    Returns the classes in discovery order (drop is not one) and the row
    of every expanded class.
    """
    states: list[SymbolicPacket] = list(dict.fromkeys(seeds))
    seen = set(states)
    rows: dict[SymbolicPacket, list[tuple[object, float]]] = {}
    for cls in states:  # grows while it is walked
        if absorbing_when is not None and absorbing_when(cls):
            continue
        rows[cls] = class_row_reference(node, cls)
        for outcome, _ in rows[cls]:
            if outcome is not DROP and outcome not in seen:
                seen.add(outcome)
                states.append(outcome)
    return states, rows


def matrices_identical(vectorized, reference, tolerance=1e-12):
    """Entry-identical as functions of (source class, target class).

    Seeded class *discovery order* is not part of the contract: the
    reference BFS expands ``Dist.support()`` (a frozenset, hash-ordered)
    while the vectorized pass expands outcomes in row order, so the same
    class set may be indexed differently.  Align the reference onto the
    vectorized indexing (drop column last in both) before demanding
    entry-identity within ``tolerance``.
    """
    assert set(vectorized.classes) == set(reference.classes)
    assert vectorized.domains == reference.domains
    assert vectorized.matrix.shape == reference.matrix.shape
    ref_index = {cls: i for i, cls in enumerate(reference.classes)}
    perm = [ref_index[cls] for cls in vectorized.classes] + [len(reference.classes)]
    aligned = reference.matrix[perm, :][:, perm]
    delta = (vectorized.matrix - aligned).toarray()
    assert np.abs(delta).max(initial=0.0) <= tolerance


def solve_absorption_reference(transient, absorbing, transitions):
    """The dict-and-set construction :func:`repro.core.markov.solve_absorption_batched`
    and :meth:`~repro.core.markov.AbsorptionSystem.result` had before they
    went to index arrays, kept verbatim as their oracle.

    Set-based backward reachability over the row dicts, a second pass
    over the same dicts into Q/R triplet lists, ``identity - Q``, and the
    dense answer read back cell by cell.  Returns ``(transient, doomed,
    result)``: the solvable and the doomed states in the caller's order,
    and the :class:`AbsorptionResult`.
    """
    transient = list(transient)
    absorbing = list(absorbing)
    if not transient:
        return [], [], AbsorptionResult({}, {})
    reaching = _states_reaching_absorption(transient, absorbing, transitions)
    doomed = [state for state in transient if state not in reaching]
    transient = [state for state in transient if state in reaching]
    nt, na = len(transient), len(absorbing)
    t_index = {state: i for i, state in enumerate(transient)}
    a_index = {state: j for j, state in enumerate(absorbing)}

    q_rows, q_cols, q_data = [], [], []
    r_rows, r_cols, r_data = [], [], []
    doomed_set = set(doomed)
    for state in transient:
        i = t_index[state]
        for succ, prob in transitions.get(state, {}).items():
            p = float(prob)
            if p == 0.0:
                continue
            if succ in t_index:
                q_rows.append(i)
                q_cols.append(t_index[succ])
                q_data.append(p)
            elif succ in a_index:
                r_rows.append(i)
                r_cols.append(a_index[succ])
                r_data.append(p)
            elif succ in doomed_set:
                continue  # mass entering a doomed state can never be absorbed
            else:
                raise KeyError(f"successor {succ!r} is neither transient nor absorbing")

    absorption = np.zeros((nt, na))
    if nt and na:
        q_mat = csc_matrix((q_data, (q_rows, q_cols)), shape=(nt, nt))
        r_mat = csc_matrix((r_data, (r_rows, r_cols)), shape=(nt, na))
        absorption = splu((identity(nt, format="csc") - q_mat).tocsc()).solve(r_mat.toarray())

    rows, lost = {}, {}
    for i, state in enumerate(transient):
        row = {}
        for j, a_state in enumerate(absorbing):
            value = float(absorption[i, j])
            if value < 0.0:
                if value < -1e-6:
                    raise ArithmeticError(
                        f"negative absorption probability {value} for {state!r}"
                    )
                value = 0.0
            if value > 0.0:
                row[a_state] = min(value, 1.0)
        rows[state] = row
        deficit = 1.0 - sum(row.values())
        lost[state] = deficit if deficit > SOLVER_TOLERANCE else 0.0
    for state in doomed:
        rows[state] = {}
        lost[state] = 1.0
    return transient, doomed, AbsorptionResult(rows, lost)


def per_packet_distributions(backend, policy, packets) -> dict:
    """The matrix backend's query path before answers were arrays.

    One dict per ingress, merged per (ingress, outcome): loop-free
    stages by :func:`~repro.core.fdd.node.output_distribution` per packet
    with exact weights, and each loop row decoded per entering packet.
    The loops themselves are solved by ``backend`` (one batched call
    first); what is held to this oracle is everything around the solve.
    """
    backend.output_distributions(policy, packets)
    dists = [{packet: 1} for packet in packets]
    for stage in backend.plan(policy).stages:
        if hasattr(stage, "fdd"):
            dists = [_fdd_step(stage.fdd, dist) for dist in dists]
            continue
        if stage.do_while:
            dists = [
                _fdd_step(stage.body_fdd, dist, lambda packet: _entered_by(stage, packet))
                for dist in dists
            ]
        dists = [_loop_step(stage, dist) for dist in dists]
    return {packet: Dist(weights, check=False) for packet, weights in zip(packets, dists)}


def _fdd_step(fdd, dist, passes=None):
    acc = {}
    for outcome, mass in dist.items():
        if outcome is DROP or (passes is not None and passes(outcome)):
            acc[outcome] = acc.get(outcome, 0) + mass
            continue
        for successor, weight in output_distribution(fdd, outcome).items():
            acc[successor] = acc.get(successor, 0) + mass * weight
    return acc


def _loop_step(stage, dist):
    acc = {}
    for outcome, mass in dist.items():
        if outcome is DROP or not _entered_by(stage, outcome):
            acc[outcome] = acc.get(outcome, 0) + mass
            continue
        layout = stage.layout
        cls, residual = layout.classify(outcome)
        for cls, weight in _solved_row(stage, cls).items():
            successor = DROP if cls is DROP else _concretize(layout.assignments(cls), residual)
            acc[successor] = acc.get(successor, 0) + float(mass) * weight
    return acc


def _entered_by(stage, packet) -> bool:
    """Whether a concrete packet enters a loop stage: the flat guard on its class."""
    return bool(stage.guard.holds(stage.layout.array([stage.layout.classify(packet)[0]]))[0])


# -- the per-packet handoff between stages ----------------------------------------

def class_handoff_reference(backend, plan, packets) -> list:
    """The handoff between stages that class-code columns replaced, kept as their oracle.

    The batch before the first stage and after each one, as
    :class:`~repro.core.answer.Answer` s over concrete packets: every
    stage classifies each outcome packet of the batch (its class and its
    residual), takes each class's row as a
    :class:`~repro.core.fdd.flat.ClassRow`, and decodes every outcome
    (class, residual) back to a packet (:func:`_concretize`) before the
    next stage classifies it again (:func:`_advance_reference`).  Loop
    rows are read off the stage's solver, so ``backend`` must have
    answered ``packets`` on ``plan`` already: what is held to this oracle
    is everything around the solve.
    """
    answer = Answer.identity(packets)
    answers = [answer]
    for stage in plan.stages:
        layout = stage.layout
        classified = [
            None if column is DROP else layout.classify(column) for column in answer.outcomes
        ]
        rows = {pair[0]: None for pair in classified if pair is not None}
        for cls in rows:
            rows[cls] = _stage_row(stage, cls)
        answer = _advance_reference(answer, layout, rows, classified)
        answers.append(answer)
    return answers


def _stage_row(stage, cls) -> ClassRow:
    """A stage's row of one class, over classes (code tuples) and drop."""
    layout = stage.layout
    if hasattr(stage, "fdd"):
        if not stage.exact:
            return stage.flat.rows([cls])[0]
        dist = class_transition(stage.fdd, SymbolicPacket._from_sorted(layout.pairs(cls)))
        outcomes, masses = zip(*dist.items())
        return ClassRow(
            tuple(DROP if out is DROP else layout.encode(out.values) for out in outcomes), masses
        )
    if stage.guard.holds(layout.array([cls]))[0]:
        return _solved_row(stage, cls)
    if not stage.do_while:
        return ClassRow((cls,), (1.0,))
    (first,) = stage.chain.flat.rows([cls])
    weights: dict = {}
    for successor, weight in first.items():
        if successor is not DROP and stage.guard.holds(layout.array([successor]))[0]:
            for outcome, mass in _solved_row(stage, successor).items():
                weights[outcome] = weights.get(outcome, 0.0) + weight * mass
        else:
            weights[successor] = weights.get(successor, 0.0) + weight
    return ClassRow(tuple(weights), tuple(weights.values()))


def _solved_row(stage, cls) -> ClassRow:
    """The absorption row of a solved class, its lost mass on drop."""
    (state,) = stage.chain.states_of(stage.layout.array([cls])).tolist()
    outcomes, masses, lost = stage.solver.absorbed(state)
    if lost:  # onto state 0, drop
        if 0 in outcomes:
            masses[outcomes.index(0)] += lost
        else:
            outcomes.append(0)
            masses.append(lost)
    reached = [j for j in outcomes if j]
    decoded = dict(zip(reached, stage.chain.codes_of(reached)))
    decoded[0] = DROP
    return ClassRow(tuple(decoded[j] for j in outcomes), tuple(masses))


def _advance_reference(answer, layout, rows, classified):
    """``answer`` followed by a stage, one row per outcome column.

    ``classified`` is each column's (class, residual items) — ``None``
    for drop — and ``rows`` each class's row.  An outcome (class,
    residual) is decoded to a packet once per batch and becomes one column
    of the result, however many columns and ingresses reach it.
    """
    at_by_residual: dict = {}
    columns: dict = {}
    outcomes: list = []
    indptr, indices, data = [0], [], []
    decoded = 0
    for pair in classified:
        if pair is None:
            row, residual = ClassRow((DROP,), (1.0,)), None
        else:
            row, residual = rows[pair[0]], pair[1]
        at = at_by_residual.setdefault(residual, {})
        for successor in row.outcomes:
            if successor not in at:
                if successor is DROP:
                    outcome = DROP
                else:
                    outcome = _concretize(layout.assignments(successor), residual)
                    decoded += 1
                at[successor] = columns.setdefault(outcome, len(outcomes))
                if at[successor] == len(outcomes):
                    outcomes.append(outcome)
        indices.extend([at[successor] for successor in row.outcomes])
        data.extend(row.probs)
        indptr.append(len(indices))
    return answer.then(outcomes, indptr, indices, data, decoded)


def _concretize(assignments: Mapping[str, int], residual) -> Packet:
    """The concrete output packet of a class for an input with ``residual``.

    ``assignments`` are the class's concretely-valued fields: they are
    written onto the residual's pairs (the input less the fields its
    class holds); wildcard fields were untouched by the stage, so the
    packet keeps its own value — or stays without the field — exactly
    like the forward interpreter.
    """
    merged = dict(residual)
    merged.update(assignments)
    return Packet._from_sorted_items(tuple(sorted(merged.items())))


# -- model construction ---------------------------------------------------------

def field_values_reference(policy: s.Policy) -> dict[str, frozenset[int]]:
    """``Policy.field_values`` over the :meth:`~repro.core.syntax.Policy.walk` generator."""
    values: dict[str, set[int]] = {}
    for node in policy.walk():
        if isinstance(node, (s.Test, s.Assign)):
            values.setdefault(node.field, set()).add(node.value)
    return {name: frozenset(vals) for name, vals in values.items()}


def fields_reference(policy: s.Policy) -> frozenset[str]:
    names: set[str] = set()
    for node in policy.walk():
        if isinstance(node, (s.Test, s.Assign)):
            names.add(node.field)
    return frozenset(names)


def size_reference(policy: s.Policy) -> int:
    return sum(1 for _ in policy.walk())


def is_guarded_reference(policy: s.Policy) -> bool:
    for node in policy.walk():
        if isinstance(node, s.Star):
            return False
        if isinstance(node, s.Union) and not all(part.is_predicate() for part in node.parts):
            return False
    return True


def choice_reference(*branches: tuple[s.Policy, float | Fraction]) -> s.Policy:
    """:func:`repro.core.syntax.choice` with every weight through ``as_prob``
    and the total as a ``Fraction`` sum."""
    weighted: dict[s.Policy, Fraction] = {}
    order: list[s.Policy] = []
    for policy, prob in branches:
        if not isinstance(policy, s.Policy):
            raise TypeError(f"choice requires policies, got {policy!r}")
        p = s.as_prob(prob)
        if p == 0:
            continue
        if policy not in weighted:
            order.append(policy)
            weighted[policy] = p
        else:
            weighted[policy] += p
    total = sum(weighted.values(), Fraction(0))
    if total != 1:
        raise ValueError(f"choice probabilities sum to {total}, expected 1")
    if len(order) == 1:
        return order[0]
    return s.Choice(tuple((policy, weighted[policy]) for policy in order))


def topology_program_reference(
    topology: Topology,
    failable: Mapping[object, Iterable[int]] | None = None,
    sw_field: str = "sw",
    pt_field: str = "pt",
    up_prefix: str = "up",
) -> s.Policy:
    """``Topology.program`` built from ``switch_links()``, which sorts every
    directed link of the topology by ``(str(node), port)``."""
    failable = {node: set(ports) for node, ports in (failable or {}).items()}
    by_switch: dict[object, list] = {}
    for link in topology.switch_links():
        by_switch.setdefault(link.node, []).append(link)
    switch_branches = []
    for node in sorted(by_switch, key=str):
        port_branches = []
        for link in sorted(by_switch[node], key=lambda l: l.port):
            move = s.seq(s.assign(sw_field, link.peer), s.assign(pt_field, link.peer_port))
            if link.port in failable.get(node, ()):
                rule = s.ite(s.test(f"{up_prefix}{link.port}", 1), move, s.drop())
            else:
                rule = move
            port_branches.append((s.test(pt_field, link.port), rule))
        switch_branches.append((s.test(sw_field, node), s.case(port_branches, s.drop())))
    return s.case(switch_branches, s.drop())


# -- the general-purpose engines of figures 9 and 10 -------------------------------

Valuation = tuple[tuple[str, int], ...]


def collapse_basic_blocks_reference(automaton: Automaton) -> Automaton:
    """Collapse chains of unconditional probability-one edges.

    A state whose *only* outgoing edge is ``--[skip, 1, updates]--> next``
    is merged into its successor whenever the successor's outgoing edges
    do not test any field written by ``updates`` (otherwise the guard
    would have to be rewritten).  Protected states (start, accept,
    reject) are never removed.

    The replaced translation step: it rebuilds the edge list and restarts
    its scan after every merge, quadratic in the edges.
    """
    protected = {automaton.start, automaton.accept, automaton.reject}
    edges = list(automaton.edges)
    changed = True
    while changed:
        changed = False
        by_src: dict[int, list[Edge]] = {}
        for edge in edges:
            by_src.setdefault(edge.src, []).append(edge)
        for state, outgoing in by_src.items():
            if state in protected or len(outgoing) != 1:
                continue
            only = outgoing[0]
            if only.probability != 1 or not isinstance(only.guard, s.TrueP):
                continue
            if only.dst == state:
                continue
            written = {name for name, _ in only.updates}
            successor_edges = by_src.get(only.dst, [])
            if any(
                written & edge.guard.fields() for edge in successor_edges
            ):
                continue
            # Splice: redirect the state's unique edge through the successor.
            replacement: list[Edge] = []
            for edge in edges:
                if edge.src != state:
                    replacement.append(edge)
            for succ_edge in successor_edges:
                merged_updates = dict(only.updates)
                merged_updates.update(dict(succ_edge.updates))
                replacement.append(
                    Edge(
                        state,
                        succ_edge.guard,
                        succ_edge.probability,
                        tuple(sorted(merged_updates.items())),
                        succ_edge.dst,
                    )
                )
            if successor_edges:
                edges = replacement
                changed = True
                break
    reachable = _reachable_states(automaton.start, edges)
    reachable |= protected
    kept = [edge for edge in edges if edge.src in reachable]
    remap = {old: new for new, old in enumerate(sorted(reachable))}
    renumbered = [
        Edge(remap[e.src], e.guard, e.probability, e.updates, remap[e.dst])
        for e in kept
        if e.dst in remap
    ]
    return Automaton(
        start=remap[automaton.start],
        accept=remap[automaton.accept],
        reject=remap[automaton.reject],
        edges=renumbered,
        state_count=len(remap),
    )


def reachable_states(start, successors) -> list:
    """Breadth-first exploration of the states reachable from ``start``.

    ``successors(state)`` must return an iterable of successor states.
    The result preserves discovery order (deterministic given the input).
    """
    seen = dict.fromkeys(start)
    frontier = list(seen)
    index = 0
    while index < len(frontier):
        state = frontier[index]
        index += 1
        for succ in successors(state):
            if succ not in seen:
                seen[succ] = None
                frontier.append(succ)
    return frontier


def eval_guard(pred: s.Predicate, valuation: Mapping[str, int]) -> bool:
    """Evaluate a predicate over a variable valuation."""
    if isinstance(pred, s.TrueP):
        return True
    if isinstance(pred, s.FalseP):
        return False
    if isinstance(pred, s.Test):
        return valuation.get(pred.field) == pred.value
    if isinstance(pred, s.And):
        return eval_guard(pred.left, valuation) and eval_guard(pred.right, valuation)
    if isinstance(pred, s.Or):
        return eval_guard(pred.left, valuation) or eval_guard(pred.right, valuation)
    if isinstance(pred, s.Not):
        return not eval_guard(pred.pred, valuation)
    raise TypeError(f"not a predicate: {pred!r}")


def _pc_test(pred: s.Predicate) -> int | None:
    """Extract the ``pc = n`` conjunct of a guard, if syntactically present."""
    if isinstance(pred, s.Test) and pred.field == "pc":
        return pred.value
    if isinstance(pred, s.And):
        left = _pc_test(pred.left)
        return left if left is not None else _pc_test(pred.right)
    return None


class MiniDtmc:
    """Explicit-state exact engine for a translated PRISM program (§5.2).

    What the PRISM binary would do with the emitted source, in small:
    explore every reachable variable valuation, take a valuation with no
    enabled command as terminal, and solve reachability over ``Fraction``s
    with :func:`repro.core.markov.solve_absorption_exact`.  The number of
    valuations :meth:`explore` returns is the state space fig10 reports.
    """

    def __init__(self, model):
        model.check_well_formed()
        self.model = model
        # Commands indexed by the pc value they test, so a state scans only its own.
        self._by_pc: dict[int, list] = {}
        self._unindexed: list = []
        for command in model.commands:
            pc_value = _pc_test(command.guard)
            if pc_value is None:
                self._unindexed.append(command)
            else:
                self._by_pc.setdefault(pc_value, []).append(command)

    def _enabled(self, valuation: Mapping[str, int]) -> list:
        candidates = self._by_pc.get(valuation.get("pc"), []) + self._unindexed
        return [command for command in candidates if eval_guard(command.guard, valuation)]

    def step(self, state: Valuation) -> Dist[Valuation] | None:
        """One-step transition distribution, ``None`` where no command is enabled."""
        valuation = dict(state)
        enabled = self._enabled(valuation)
        if not enabled:
            return None
        if len(enabled) > 1:
            raise ValueError(
                "PRISM model is nondeterministic: multiple commands enabled in one state"
            )
        weights: dict[Valuation, Fraction] = {}
        for branch in enabled[0].branches:
            successor = tuple(sorted({**valuation, **branch.updates_dict()}.items()))
            weights[successor] = weights.get(successor, Fraction(0)) + branch.probability
        return Dist(weights)

    def _start(self, overrides: Mapping[str, int] | None) -> Valuation:
        return tuple(sorted(self.model.initial_valuation(overrides).items()))

    def explore(
        self, overrides: Mapping[str, int] | None = None
    ) -> dict[Valuation, Dist[Valuation] | None]:
        """Every valuation reachable from the initial one, in discovery
        order, with its :meth:`step`."""
        steps: dict[Valuation, Dist[Valuation] | None] = {}

        def successors(state: Valuation):
            steps[state] = step = self.step(state)
            return step.support() if step is not None else ()

        reachable_states([self._start(overrides)], successors)
        return steps

    def terminal_distribution(self, overrides: Mapping[str, int] | None = None) -> Dist[Valuation]:
        """Distribution over terminal valuations reached from the initial state."""
        start = self._start(overrides)
        steps = self.explore(overrides)
        if steps[start] is None:
            return Dist.point(start)
        terminal = [state for state, step in steps.items() if step is None]
        transitions = {
            state: dict(step.items()) for state, step in steps.items() if step is not None
        }
        result = solve_absorption_exact(list(transitions), terminal, transitions)
        row = dict(result.get(start, {}))
        lost = result.lost_mass.get(start, 0)
        if lost:
            # Divergence: report the missing mass on a synthetic outcome.
            row[(("__diverged__", 1),)] = lost
        return Dist(row, check=False)

    def probability(
        self, target: s.Predicate, overrides: Mapping[str, int] | None = None
    ) -> Fraction:
        """P[eventually reach a terminal state satisfying ``target``]."""
        total = Fraction(0)
        for state, mass in self.terminal_distribution(overrides).items():
            valuation = dict(state)
            if not valuation.get("__diverged__") and eval_guard(target, valuation):
                total += mass
        return total


def prism_model(
    policy: s.Policy, input_packet: Packet, target: s.Predicate
) -> tuple[PrismModel, dict[str, int]]:
    """The §5.2 translation of ``policy`` with ``target`` as its ``delivered``
    label, and the input packet as overrides of the initial valuation.

    Field bounds come from the program, widened to cover the input
    packet's values.
    """
    overrides = input_packet.as_dict()
    table = FieldTable.from_policy(policy)
    for name, value in overrides.items():
        table.declare(name, min(0, value), value)
    return translate_policy(policy, fields=table, delivered=target), overrides


def prism_probability(policy: s.Policy, input_packet: Packet, target: s.Predicate) -> Fraction:
    """P[terminated ∧ target] of the translated program, solved exactly."""
    model, overrides = prism_model(policy, input_packet, target)
    return MiniDtmc(model).probability(model.labels["delivered"], overrides=overrides)


class UnrollLimitExceeded(RuntimeError):
    """Raised when a loop fails to converge within the unrolling bound."""


class ExactInferenceBaseline:
    """A Bayonet-style whole-state-space inference over guarded ProbNetKAT.

    Bayonet hands a network to a general-purpose probabilistic language
    and its engine, without McNetKAT's two domain-specific moves:

    1. state is a dense distribution over the *entire* declared variable
       space (every combination of field values), not the packets
       reachable from the query's ingress;
    2. ``while`` loops have no closed form: they are unrolled until the
       mass still inside them drops below ``tolerance``.

    :attr:`space` is the size of the last query's declared space and
    :attr:`unrollings` the loop iterations run so far — fig10's two
    columns for this engine.

    Parameters
    ----------
    unroll_limit:
        Maximum number of loop unrollings before giving up.
    tolerance:
        The mass left inside a loop below which it counts as converged.
    max_states:
        Safety bound on the size of the declared state space (the product
        of all field domains).
    """

    def __init__(
        self, unroll_limit: int = 10_000, tolerance: float = 1e-12, max_states: int = 200_000
    ):
        self.unroll_limit = unroll_limit
        self.tolerance = tolerance
        self.max_states = max_states
        self.space = 0
        self.unrollings = 0
        self._universe: list[Packet] = []
        self._index: dict[Packet, int] = {}
        self._masks: dict[s.Predicate, np.ndarray] = {}

    def output_distribution(self, policy: s.Policy, input_packet: Packet) -> Dist:
        """Output distribution of ``policy`` on ``input_packet``.

        Field domains come from the program, widened to cover the input
        packet's values.
        """
        fields = FieldTable.from_policy(policy)
        for name, value in input_packet.items():
            fields.declare(name, min(0, value), value)
        universe = PacketUniverse(fields.as_domains())
        if universe.size > self.max_states:
            raise MemoryError(
                f"declared state space has {universe.size} packets, "
                f"exceeding the baseline's limit of {self.max_states}"
            )
        self.space = universe.size
        self._masks = {}
        self._universe = list(universe.packets)
        self._index = {packet: i for i, packet in enumerate(self._universe)}

        # The input packet, extended with the low end of every undeclared field.
        start = Packet({spec.name: spec.low for spec in fields} | input_packet.as_dict())
        vector = np.zeros(len(self._universe) + 1)
        vector[self._index[start]] = 1.0
        result = self._run(policy, vector)

        weights: dict = {self._universe[i]: float(result[i]) for i in np.flatnonzero(result[:-1])}
        if result[-1] > 0.0:
            weights[DROP] = float(result[-1])
        return Dist(weights, check=False)

    def delivery_probability(
        self, policy: s.Policy, input_packet: Packet, delivered: s.Predicate
    ) -> float:
        """Probability that the output satisfies ``delivered``."""
        dist = self.output_distribution(policy, input_packet)
        return float(
            dist.prob_of(
                lambda out: not isinstance(out, _DropType) and eval_predicate(delivered, out)
            )
        )

    # -- dense interpretation; the last slot of a vector is drop -------------------
    def _run(self, policy: s.Policy, vector: np.ndarray) -> np.ndarray:
        """Push a dense state distribution through a policy."""
        if isinstance(policy, s.Predicate):
            kept = vector * self._mask(policy)
            kept[-1] = vector[-1] + float(vector[:-1].sum() - kept[:-1].sum())
            return kept
        if isinstance(policy, s.Assign):
            result = np.zeros_like(vector)
            result[-1] = vector[-1]
            for i in np.flatnonzero(vector[:-1]):
                target = self._universe[i].set(policy.field, policy.value)
                result[self._index[target]] += vector[i]
            return result
        if isinstance(policy, s.Seq):
            for part in policy.parts:
                vector = self._run(part, vector)
            return vector
        if isinstance(policy, s.Choice):
            result = np.zeros_like(vector)
            for branch, prob in policy.branches:
                result += float(prob) * self._run(branch, vector.copy())
            return result
        if isinstance(policy, s.IfThenElse):
            mask = self._mask(policy.guard)
            return self._run(policy.then, vector * mask) + self._run(
                policy.otherwise, vector * (1.0 - mask)
            )
        if isinstance(policy, s.Case):
            return self._run(s.case_to_ite(policy), vector)
        if isinstance(policy, s.WhileDo):
            return self._run_while(policy, vector)
        if isinstance(policy, (s.Union, s.Star)):
            raise GuardedFragmentError(
                "the exact-inference baseline handles the guarded fragment only"
            )
        raise TypeError(f"unknown policy node {type(policy)!r}")

    def _mask(self, pred: s.Predicate) -> np.ndarray:
        """1 on the packets satisfying ``pred``, 0 elsewhere and on drop."""
        mask = self._masks.get(pred)
        if mask is None:
            mask = np.zeros(len(self._universe) + 1)
            for i, packet in enumerate(self._universe):
                if eval_predicate(pred, packet):
                    mask[i] = 1.0
            self._masks[pred] = mask
        return mask

    def _run_while(self, loop: s.WhileDo, vector: np.ndarray) -> np.ndarray:
        """Bounded unrolling of a while loop (no closed form, like Bayonet)."""
        mask = self._mask(loop.guard)
        settled = vector * (1.0 - mask)
        settled[-1] = vector[-1]
        active = vector * mask
        for _ in range(self.unroll_limit):
            if active[:-1].sum() <= self.tolerance:
                return settled
            self.unrollings += 1
            stepped = self._run(loop.body, active)
            newly_settled = stepped * (1.0 - mask)
            newly_settled[-1] = stepped[-1]
            settled = settled + newly_settled
            active = stepped * mask
        raise UnrollLimitExceeded(
            f"while loop did not converge within {self.unroll_limit} unrollings"
        )
