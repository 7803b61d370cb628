"""Compiled bodies: a loop-free program as diagrams walked per packet.

McNetKAT's scalability rests on compiling each switch's policy to an FDD
*once* and never re-interpreting the AST (§5–§6).  A :class:`CompiledBody`
is how the forward interpreter does that for a loop body, and for every
loop-free run of a sequence around a loop:

* a switch's run has one definition,
  :meth:`repro.core.compiler.Compiler.runs_per_value`, shared with the
  compiler: a :func:`dispatch_spine`-shaped body is one lazy
  ``value → diagram`` segment that asks that method for the run of each
  switch a packet visits — the diagram the compiler joins into the whole
  program's, one per switch role and renamed per switch — so no product
  of all switches' class spaces is ever built and no per-switch program
  is synthesised here;
* any other body is a pipeline of segments: maximal runs compiled
  eagerly into one diagram each, and a lone single-field ``case`` as the
  same lazy segment over its branches;
* a transition row is computed by FDD evaluation (walk to a leaf, apply
  its actions) instead of AST interpretation;
* when ``exact`` is off, leaf action distributions are cached with
  pre-converted ``float`` weights, so exploration performs no
  ``Fraction`` arithmetic at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.fdd.actions import ActionOrDrop, apply_action
from repro.core.fdd.node import FddManager, FddNode, Leaf, leaf_of
from repro.core.packet import DROP, Packet, _DropType

Outcome = Packet | _DropType

#: Leaf-uid -> tuple of (action, weight) pairs; shared across the
#: segments of one compiled body so interned leaves convert only once.
_LeafCache = dict[int, tuple[tuple[ActionOrDrop, object], ...]]


class _Segment:
    """Common row machinery: per-packet row cache + leaf weight cache."""

    __slots__ = ("exact", "_leaf_cache", "_rows")

    def __init__(self, exact: bool, leaf_cache: _LeafCache):
        self.exact = exact
        self._leaf_cache = leaf_cache
        self._rows: dict[Packet, tuple[tuple[Outcome, object], ...]] = {}

    def _fdd_for(self, packet: Packet) -> FddNode:  # pragma: no cover - abstract
        raise NotImplementedError

    def _leaf_weights(self, leaf: Leaf) -> tuple[tuple[ActionOrDrop, object], ...]:
        cached = self._leaf_cache.get(leaf.uid)
        if cached is None:
            if self.exact:
                cached = tuple(
                    (action, Fraction(prob)) for action, prob in leaf.dist.items()
                )
            else:
                cached = tuple(
                    (action, float(prob)) for action, prob in leaf.dist.items()
                )
            self._leaf_cache[leaf.uid] = cached
        return cached

    def row(self, packet: Packet) -> tuple[tuple[Outcome, object], ...]:
        """The one-step output distribution of this segment on ``packet``."""
        row = self._rows.get(packet)
        if row is None:
            # The shared descent, reading the packet as it is: a per-switch
            # diagram holds half a test per walk on ``f10-verdicts-exact``
            # (2 788 over 5 658 walks), less than a lookup dict costs to build.
            leaf = leaf_of(self._fdd_for(packet), packet.get)
            row = tuple(
                (apply_action(action, packet), prob)
                for action, prob in self._leaf_weights(leaf)
            )
            self._rows[packet] = row
        return row


class _FddSegment(_Segment):
    """A maximal loop-free run of the body, compiled to one FDD."""

    __slots__ = ("fdd",)

    def __init__(self, fdd: FddNode, exact: bool, leaf_cache: _LeafCache):
        super().__init__(exact, leaf_cache)
        self.fdd = fdd

    def _fdd_for(self, packet: Packet) -> FddNode:
        return self.fdd


class _CaseSegment(_Segment):
    """One field's lazy ``value → diagram`` segment.

    This is the per-switch compilation of the paper: ``at(value)`` builds
    the diagram of a value in ``values`` the first time a packet holding
    it arrives (a switch's whole run, or one branch of a lone ``case``);
    every other packet walks ``default``.  The diagrams never merge into
    one, so the symbolic class space stays per-switch.
    """

    __slots__ = ("field", "_values", "_at", "_default", "_fdds")

    def __init__(
        self,
        field: str,
        values: Iterable[int],
        at: Callable[[int], FddNode],
        default: FddNode,
        exact: bool,
        leaf_cache: _LeafCache,
    ):
        super().__init__(exact, leaf_cache)
        self.field = field
        self._values = frozenset(values)
        self._at = at
        self._default = default
        self._fdds: dict[int, FddNode] = {}

    def _fdd_for(self, packet: Packet) -> FddNode:
        value = packet.get(self.field)
        fdd = self._fdds.get(value)
        if fdd is None:
            if value not in self._values:
                return self._default
            fdd = self._fdds[value] = self._at(value)
        return fdd

    @property
    def compiled_branches(self) -> int:
        return len(self._fdds)


class CompiledBody:
    """A loop-free program compiled into FDD segments for fast row computation.

    Build with :meth:`try_compile` (returns ``None`` when the program is
    not eligible, e.g. it contains a loop).  The central operation is
    :meth:`run_packet`: the output distribution of the program on one
    concrete packet, computed purely by FDD evaluation.
    """

    def __init__(self, segments: list[_Segment], exact: bool, manager: FddManager):
        self._segments = segments
        self.exact = exact
        self.manager = manager
        #: Packets run through this body (:meth:`run_packet` calls).
        self.runs = 0

    # -- construction -----------------------------------------------------------
    @classmethod
    def try_compile(cls, body: s.Policy, compiler, exact: bool = False) -> "CompiledBody | None":
        """Compile ``body`` into segments, or ``None`` when ineligible.

        Ineligible bodies (nested ``while``/``star``/``union``, or
        constructs the compiler rejects) fall back to AST interpretation;
        eligibility is decided up front so no fallback can be needed
        mid-exploration.  ``union`` is excluded even over predicates,
        where the compiler could handle it, so the fast path accepts
        exactly the programs the interpreter accepts.
        """
        if not body.shape()[0]:
            return None
        from repro.core.compiler import GuardedFragmentError

        parts = body.parts if isinstance(body, s.Seq) else (body,)
        try:
            segments = cls._segments_of(parts, compiler, exact)
        except GuardedFragmentError:
            return None
        return cls(segments, exact, compiler.manager)

    @staticmethod
    def _segments_of(parts: Sequence[s.Policy], compiler, exact: bool) -> list[_Segment]:
        leaf_cache: _LeafCache = {}
        spine = dispatch_spine(parts)
        if spine is not None and not _leaves_a_wide_case_whole(parts, spine[1]):
            # The whole body runs per value of one dispatch field (per
            # switch, for network models): the compiler's own run of that
            # switch, built on the first packet that reaches it.
            runs = compiler.runs_per_value(parts, spine)
            return [_CaseSegment(*runs, exact, leaf_cache)]
        segments: list[_Segment] = []
        pending: list[s.Policy] = []

        def flush() -> None:
            if pending:
                fdd = compiler.compile_unreduced(s.seq(*pending))
                segments.append(_FddSegment(fdd, exact, leaf_cache))
                pending.clear()

        for part in parts:
            dispatch = _dispatch_table(part) if isinstance(part, s.Case) else None
            if dispatch is None:
                pending.append(part)
                continue
            flush()
            field, table = dispatch
            segments.append(_CaseSegment(
                field,
                table,
                lambda value, table=table: compiler.compile_unreduced(table[value]),
                compiler.compile_unreduced(part.default),
                exact,
                leaf_cache,
            ))
        flush()
        return segments

    # -- evaluation -------------------------------------------------------------
    def run_packet(self, packet: Packet) -> Dist[Outcome]:
        """Output distribution of the compiled body on one input packet."""
        self.runs += 1
        one: object = Fraction(1) if self.exact else 1.0
        acc: dict[Outcome, object] = {packet: one}
        for segment in self._segments:
            advanced: dict[Outcome, object] = {}
            get = advanced.get
            row = segment.row
            for outcome, mass in acc.items():
                if outcome is DROP:
                    advanced[DROP] = get(DROP, 0) + mass
                    continue
                for successor, prob in row(outcome):
                    advanced[successor] = get(successor, 0) + mass * prob
            acc = advanced
        return Dist._from_weights(acc)

    # -- introspection ----------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Segment/branch/cache counts (benchmark and test introspection)."""
        case_segments = [
            segment for segment in self._segments if isinstance(segment, _CaseSegment)
        ]
        return {
            "segments": len(self._segments),
            "case_segments": len(case_segments),
            "compiled_branches": sum(
                segment.compiled_branches for segment in case_segments
            ),
            "cached_rows": sum(len(segment._rows) for segment in self._segments),
        }


def dispatch_spine(
    parts: Sequence[s.Policy],
) -> tuple[str, list[dict[int, s.Policy] | None], int, tuple[str, ...]] | None:
    """The per-value dispatch structure of a sequence, if it has one.

    Network-model programs are sequences of ``case`` nodes dispatching on
    the switch field (failure model, routing, topology) among parts that
    do not dispatch (ingress predicate, flag resets, hop counter).  For a
    packet at switch ``v`` such a sequence collapses to
    ``failure_v ; routing_v ; topology_v ; …`` — one small per-switch
    program.  This is the single definition of that shape;
    :meth:`repro.core.compiler.Compiler.runs_per_value`, the single
    definition of a value's run, takes it from here.

    Returns ``(field, marked, stable, located)``: ``field`` is the field
    of the first single-field ``case``; ``parts[:stable]`` are the parts
    that still see the *input* value of ``field`` (everything up to and
    including the first part that may assign it — the topology step
    assigns ``sw``); ``marked[i]`` is the ``value -> branch`` table of
    ``parts[i]`` when it is a ``case`` on ``field`` among those, else
    ``None``; and ``located`` is ``field`` followed by the other fields
    that re-assigning part writes, in program order (``sw``, ``pt``: a
    packet's location) — the fields the compiler ranks first.  ``None``
    when no part qualifies.
    """
    dispatches = [
        _dispatch_table(part) if isinstance(part, s.Case) else None for part in parts
    ]
    field = next((d[0] for d in dispatches if d is not None), None)
    if field is None:
        return None
    marked: list[dict[int, s.Policy] | None] = [None] * len(parts)
    stable = len(parts)
    located = (field,)
    for index, (part, dispatch) in enumerate(zip(parts, dispatches)):
        if dispatch is not None and dispatch[0] == field:
            marked[index] = dispatch[1]
        assigned = part.shape()[1]
        if field in assigned:
            stable = index + 1
            located += tuple(name for name in assigned if name != field)
            break
    if not any(table is not None for table in marked):
        return None
    return field, marked, stable, located


def _leaves_a_wide_case_whole(
    parts: Sequence[s.Policy], marked: Sequence[dict[int, s.Policy] | None]
) -> bool:
    """Whether a per-value run of ``parts`` would compile a wide ``case`` whole.

    A ``case`` the spine does not specialise (another field's, or one
    past the part that re-assigns the dispatch field) goes into every
    run as one diagram of all its branches; over 64 of them, the lazy
    segment pipeline serves it better.
    """
    return any(
        table is None
        and isinstance(part, s.Case)
        and (dispatch := _dispatch_table(part)) is not None
        and len(dispatch[1]) > 64
        for part, table in zip(parts, marked)
    )


def _dispatch_table(policy: s.Case) -> tuple[str, dict[int, s.Policy]] | None:
    """``(field, value -> branch)`` when every guard tests one common field.

    The same shape the interpreter's dispatch uses; ``None`` for mixed
    guards (those cases compile eagerly as part of a loop-free segment).
    """
    field: str | None = None
    table: dict[int, s.Policy] = {}
    for guard, branch in policy.branches:
        if not isinstance(guard, s.Test):
            return None
        if field is None:
            field = guard.field
        elif guard.field != field:
            return None
        if guard.value in table:
            # Later duplicate guards are unreachable; keep the first.
            continue
        table[guard.value] = branch
    if field is None:
        return None
    return field, table
