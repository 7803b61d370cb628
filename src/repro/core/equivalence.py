"""Program equivalence and refinement checking.

Corollary 3.2 of the paper reduces program equivalence to equality of the
stochastic matrices ``B[[p]]`` and ``B[[q]]``; in the implementation this
becomes equality of canonical FDDs (which, thanks to hash-consing, is a
pointer comparison).  For large network models, where full compilation is
impractical, equivalence and refinement are checked on the output
distributions of a given set of input packets — which is exactly what the
network properties of §2 and §7 require (the models are of the form
``in ; …`` and only the ingress packets matter).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core import syntax as s
from repro.core.compiler import Compiler
from repro.core.distributions import Dist
from repro.core.fdd.node import FddManager, FddNode
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import DROP, Packet


# ---------------------------------------------------------------------------
# full (FDD-based) equivalence
# ---------------------------------------------------------------------------

def compile_pair(
    p: s.Policy,
    q: s.Policy,
    manager: FddManager | None = None,
    exact: bool = True,
) -> tuple[FddNode, FddNode]:
    """Compile two programs with a shared manager (required for comparison)."""
    manager = manager if manager is not None else FddManager()
    compiler = Compiler(manager=manager, exact=exact)
    return compiler.compile(p), compiler.compile(q)


def fdd_equivalent(
    p: s.Policy,
    q: s.Policy,
    manager: FddManager | None = None,
    exact: bool = True,
) -> bool:
    """Full program equivalence ``p ≡ q`` via canonical FDDs (Corollary 3.2).

    With exact arithmetic, structurally identical FDDs are interned to the
    same node, so the comparison is exact.
    """
    fdd_p, fdd_q = compile_pair(p, q, manager=manager, exact=exact)
    return fdd_p is fdd_q


# ---------------------------------------------------------------------------
# input-restricted equivalence and refinement
# ---------------------------------------------------------------------------

def output_distributions(
    p: s.Policy,
    inputs: Sequence[Packet],
    exact: bool = False,
    interpreter: Interpreter | None = None,
) -> dict[Packet, Dist[Outcome]]:
    """Per-input output distributions of ``p`` (forward interpretation)."""
    interp = interpreter if interpreter is not None else Interpreter(exact=exact)
    return interp.output_distributions(p, inputs)


def joint_distributions(
    runs: Sequence[tuple[s.Policy, Sequence[Packet]]], exact: bool
) -> list[dict[Packet, Dist[Outcome]]]:
    """Evaluate each ``(program, inputs)`` run on one interpreter: one compiler,
    one FDD manager, so the sub-diagrams the programs share are interned and
    combined once."""
    interpreter = Interpreter(exact=exact)
    return [
        output_distributions(policy, inputs, interpreter=interpreter)
        for policy, inputs in runs
    ]


def output_equivalent(
    p: s.Policy,
    q: s.Policy,
    inputs: Iterable[Packet],
    exact: bool = False,
    tolerance: float = 1e-9,
) -> bool:
    """Equivalence of ``p`` and ``q`` restricted to the given input packets."""
    inputs = list(inputs)
    dists_p, dists_q = joint_distributions([(p, inputs), (q, inputs)], exact)
    for packet in inputs:
        if exact:
            if dists_p[packet] != dists_q[packet]:
                return False
        elif not dists_p[packet].close_to(dists_q[packet], tolerance=tolerance):
            return False
    return True


def _dominated(
    dists_p: dict[Packet, Dist[Outcome]],
    dists_q: dict[Packet, Dist[Outcome]],
    tolerance: float,
) -> bool:
    """Whether ``dists_q`` dominates ``dists_p`` on every input (drop ignored)."""
    ignore = frozenset([DROP])
    return all(
        dist.dominated_by(dists_q[packet], tolerance=tolerance, ignore=ignore)
        for packet, dist in dists_p.items()
    )


def refines(
    p: s.Policy,
    q: s.Policy,
    inputs: Iterable[Packet],
    exact: bool = False,
    tolerance: float = 1e-9,
) -> bool:
    """The refinement order ``p ≤ q`` restricted to the given inputs.

    ``p ≤ q`` holds when, for every input, ``q`` produces each output
    *packet* with probability at least that of ``p`` (the drop outcome is
    excluded, following the paper: ``q`` delivers packets with higher
    probability than ``p``).
    """
    inputs = list(inputs)
    dists_p, dists_q = joint_distributions([(p, inputs), (q, inputs)], exact)
    return _dominated(dists_p, dists_q, tolerance)


def strictly_refines(
    p: s.Policy,
    q: s.Policy,
    inputs: Iterable[Packet],
    exact: bool = False,
    tolerance: float = 1e-9,
) -> bool:
    """The strict refinement ``p < q``: ``p ≤ q`` and not ``q ≤ p``."""
    return compare(p, q, inputs, exact=exact, tolerance=tolerance) == "<"


def compare(
    p: s.Policy,
    q: s.Policy,
    inputs: Iterable[Packet],
    exact: bool = False,
    tolerance: float = 1e-9,
) -> str:
    """Classify the relationship between two programs on the given inputs.

    Returns one of ``"≡"``, ``"<"``, ``">"``, or ``"incomparable"`` — the
    entries used in Figure 11(c) of the paper.  Each program is evaluated
    once per input; both refinement directions read the same distributions.
    """
    inputs = list(inputs)
    dists_p, dists_q = joint_distributions([(p, inputs), (q, inputs)], exact)
    return relation(dists_p, dists_q, tolerance)


def relation(
    dists_p: dict[Packet, Dist[Outcome]],
    dists_q: dict[Packet, Dist[Outcome]],
    tolerance: float = 1e-9,
) -> str:
    """Classify two programs by their output distributions on the same inputs.

    ``dists_p`` and ``dists_q`` map each input packet to that program's
    output distribution; the result is :func:`compare`'s.
    """
    le = _dominated(dists_p, dists_q, tolerance)
    ge = _dominated(dists_q, dists_p, tolerance)
    if le and ge:
        return "≡"
    if le:
        return "<"
    if ge:
        return ">"
    return "incomparable"
