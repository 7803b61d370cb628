"""Thompson-style automaton construction for the PRISM backend (§5.2).

Guarded ProbNetKAT programs are first translated into a finite state
machine whose edges carry a predicate, a probability, and a sequence of
field updates, subject to the paper's well-formedness conditions:

1. for each state, the predicates on its outgoing edge groups partition
   the state space;
2. for each state and predicate, the probabilities of the edges guarded
   by that predicate sum to one.

The machine is then simplified by collapsing basic blocks — chains of
unconditional probability-one edges — which is the step that keeps the
program counter small and the resulting PRISM model tractable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from repro.core import syntax as s
from repro.core.compiler import GuardedFragmentError


@dataclass(frozen=True)
class Edge:
    """A transition ``src --[guard, prob, updates]--> dst``."""

    src: int
    guard: s.Predicate
    probability: Fraction
    updates: tuple[tuple[str, int], ...]
    dst: int


@dataclass
class Automaton:
    """A probabilistic control-flow automaton with distinguished states.

    ``start`` is the entry point, ``accept`` the normal exit, and ``reject``
    the state reached when a test fails (the packet is dropped).
    """

    start: int
    accept: int
    reject: int
    edges: list[Edge] = field(default_factory=list)
    state_count: int = 0
    #: Edges :func:`collapse_basic_blocks` looked at to build this automaton.
    visits: int = 0

    def states(self) -> range:
        return range(self.state_count)

    def outgoing(self, state: int) -> list[Edge]:
        return [edge for edge in self.edges if edge.src == state]

    def successors(self, state: int) -> set[int]:
        return {edge.dst for edge in self.edges if edge.src == state}


class _Builder:
    def __init__(self) -> None:
        self.edges: list[Edge] = []
        self.count = 0

    def fresh(self) -> int:
        state = self.count
        self.count += 1
        return state

    def edge(
        self,
        src: int,
        dst: int,
        guard: s.Predicate = s.SKIP,
        probability: Fraction | int = 1,
        updates: Iterable[tuple[str, int]] = (),
    ) -> None:
        self.edges.append(
            Edge(src, guard, Fraction(probability), tuple(updates), dst)
        )


def build_automaton(policy: s.Policy) -> Automaton:
    """Translate a guarded policy into its control-flow automaton."""
    return collapse_basic_blocks(control_flow_automaton(policy))


def control_flow_automaton(policy: s.Policy) -> Automaton:
    """The automaton of a guarded policy, before basic blocks are collapsed."""
    builder = _Builder()
    start = builder.fresh()
    accept = builder.fresh()
    reject = builder.fresh()
    _translate(builder, policy, start, accept, reject)
    return Automaton(
        start=start,
        accept=accept,
        reject=reject,
        edges=builder.edges,
        state_count=builder.count,
    )


def _translate(builder: _Builder, policy: s.Policy, entry: int, exit_: int, reject: int) -> None:
    if isinstance(policy, s.Predicate):
        if isinstance(policy, s.TrueP):
            builder.edge(entry, exit_)
            return
        if isinstance(policy, s.FalseP):
            builder.edge(entry, reject)
            return
        builder.edge(entry, exit_, guard=policy)
        builder.edge(entry, reject, guard=s.neg(policy))
        return
    if isinstance(policy, s.Assign):
        builder.edge(entry, exit_, updates=((policy.field, policy.value),))
        return
    if isinstance(policy, s.Seq):
        current = entry
        parts = list(policy.parts)
        for index, part in enumerate(parts):
            target = exit_ if index == len(parts) - 1 else builder.fresh()
            _translate(builder, part, current, target, reject)
            current = target
        if not parts:
            builder.edge(entry, exit_)
        return
    if isinstance(policy, s.Choice):
        for branch, probability in policy.branches:
            branch_entry = builder.fresh()
            builder.edge(entry, branch_entry, probability=probability)
            _translate(builder, branch, branch_entry, exit_, reject)
        return
    if isinstance(policy, s.IfThenElse):
        then_entry = builder.fresh()
        else_entry = builder.fresh()
        builder.edge(entry, then_entry, guard=policy.guard)
        builder.edge(entry, else_entry, guard=s.neg(policy.guard))
        _translate(builder, policy.then, then_entry, exit_, reject)
        _translate(builder, policy.otherwise, else_entry, exit_, reject)
        return
    if isinstance(policy, s.Case):
        _translate(builder, s.case_to_ite(policy), entry, exit_, reject)
        return
    if isinstance(policy, s.WhileDo):
        body_entry = builder.fresh()
        builder.edge(entry, body_entry, guard=policy.guard)
        builder.edge(entry, exit_, guard=s.neg(policy.guard))
        _translate(builder, policy.body, body_entry, entry, reject)
        return
    if isinstance(policy, (s.Union, s.Star)):
        raise GuardedFragmentError(
            "the PRISM backend only supports the guarded fragment "
            "(no bare union or Kleene star)"
        )
    raise TypeError(f"unknown policy node {type(policy)!r}")


def collapse_basic_blocks(automaton: Automaton) -> Automaton:
    """Collapse chains of unconditional probability-one edges.

    A state whose *only* outgoing edge is ``--[skip, 1, updates]--> next``
    is merged into its successor whenever the successor's outgoing edges
    do not test any field written by ``updates`` (otherwise the guard
    would have to be rewritten).  Protected states (start, accept,
    reject) are never removed.

    Merges are not confluent (a merged state writes more fields, which
    can block a later merge), so the order is fixed: the first mergeable
    state in edge order, where a merged state's edges move to the end.
    One pass over a priority queue keeps that order; a merge re-queues
    only the merged state and its predecessors, the states whose
    mergeability it can change.  ``visits`` on the result counts the
    edges the pass looked at.
    """
    protected = {automaton.start, automaton.accept, automaton.reject}
    by_src: dict[int, list[Edge]] = {}
    into: dict[int, set[int]] = {}
    for edge in automaton.edges:
        by_src.setdefault(edge.src, []).append(edge)
        into.setdefault(edge.dst, set()).add(edge.src)
    visits = len(automaton.edges)
    # A state's place in edge order; a merged state's edges move to the end.
    place = {state: rank for rank, state in enumerate(by_src)}
    queue = [(rank, state) for state, rank in place.items()]
    ranks = itertools.count(len(place))
    moved: set[int] = set()
    while queue:
        rank, state = heapq.heappop(queue)
        visits += 1
        outgoing = by_src[state]
        if place[state] != rank or state in protected or len(outgoing) != 1:
            continue
        only = outgoing[0]
        if only.probability != 1 or not isinstance(only.guard, s.TrueP):
            continue
        if only.dst == state:
            continue
        written = {name for name, _ in only.updates}
        successor_edges = by_src.get(only.dst, [])
        visits += len(successor_edges)
        if not successor_edges or any(
            written & edge.guard.fields() for edge in successor_edges
        ):
            continue
        # Splice: redirect the state's unique edge through the successor.
        by_src[state] = [
            Edge(
                state,
                succ_edge.guard,
                succ_edge.probability,
                tuple(sorted({**dict(only.updates), **dict(succ_edge.updates)}.items())),
                succ_edge.dst,
            )
            for succ_edge in successor_edges
        ]
        into[only.dst].discard(state)
        for succ_edge in successor_edges:
            into.setdefault(succ_edge.dst, set()).add(state)
        moved.add(state)
        place[state] = next(ranks)
        heapq.heappush(queue, (place[state], state))
        for pred in into.get(state, ()):
            heapq.heappush(queue, (place[pred], pred))
    edges = [edge for edge in automaton.edges if edge.src not in moved]
    for state in sorted(moved, key=place.__getitem__):
        edges.extend(by_src[state])
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
        visits=visits,
    )


def _reachable_states(start: int, edges: list[Edge]) -> set[int]:
    successors: dict[int, set[int]] = {}
    for edge in edges:
        successors.setdefault(edge.src, set()).add(edge.dst)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for succ in successors.get(state, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen
