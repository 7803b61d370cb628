"""Reference denotational semantics ``[[p]] : 2^Pk -> D(2^Pk)``.

This is the history-free packet-set semantics of Appendix A (Figure 13):
programs map a set of input packets to a discrete distribution over sets
of output packets, using the probability (Giry) monad structure provided
by :class:`repro.core.distributions.Dist`.

The semantics is exponential in the size of the packet universe and is
used only as an executable specification on tiny universes for soundness
tests (Theorem 3.1 and friends).
"""

from __future__ import annotations

from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.packet import Packet

PacketSet = frozenset[Packet]


class StarDivergenceError(RuntimeError):
    """Raised when iteration of ``p*`` fails to converge within the bound."""


def eval_policy(
    policy: s.Policy,
    packets: PacketSet,
    max_star_iterations: int = 200,
    tolerance: float = 1e-12,
) -> Dist[PacketSet]:
    """Evaluate ``policy`` on the input packet set ``packets``.

    Iteration (``p*`` and ``while``) is evaluated by unrolling until the
    output distribution stops changing; exact (Fraction) fixpoints are
    detected exactly, float fixpoints up to ``tolerance``.
    """
    return _eval(policy, frozenset(packets), max_star_iterations, tolerance)


def _eval(
    policy: s.Policy,
    packets: PacketSet,
    max_iter: int,
    tol: float,
) -> Dist[PacketSet]:
    if isinstance(policy, s.FalseP):
        return Dist.point(frozenset())
    if isinstance(policy, s.TrueP):
        return Dist.point(packets)
    if isinstance(policy, s.Test):
        kept = frozenset(p for p in packets if p.test(policy.field, policy.value))
        return Dist.point(kept)
    if isinstance(policy, s.Not):
        inner = _eval(policy.pred, packets, max_iter, tol)
        return inner.map(lambda b: packets - b)
    if isinstance(policy, s.And):
        return _eval(s.Seq((policy.left, policy.right)), packets, max_iter, tol)
    if isinstance(policy, s.Or):
        return _eval(s.Union((policy.left, policy.right)), packets, max_iter, tol)
    if isinstance(policy, s.Assign):
        updated = frozenset(p.set(policy.field, policy.value) for p in packets)
        return Dist.point(updated)
    if isinstance(policy, s.Seq):
        dist: Dist[PacketSet] = Dist.point(packets)
        for part in policy.parts:
            dist = dist.bind(lambda a, part=part: _eval(part, a, max_iter, tol))
        return dist
    if isinstance(policy, s.Union):
        dist = Dist.point(frozenset())
        for part in policy.parts:
            branch = _eval(part, packets, max_iter, tol)
            dist = dist.product(branch).map(lambda pair: pair[0] | pair[1])
        return dist
    if isinstance(policy, s.Choice):
        return Dist.convex(
            (
                _eval(branch, packets, max_iter, tol),
                prob,
            )
            for branch, prob in policy.branches
        )
    if isinstance(policy, s.IfThenElse):
        expanded = s.union(
            s.seq(policy.guard, policy.then),
            s.seq(s.neg(policy.guard), policy.otherwise),
        )
        return _eval(expanded, packets, max_iter, tol)
    if isinstance(policy, s.Case):
        return _eval(s.case_to_ite(policy), packets, max_iter, tol)
    if isinstance(policy, s.WhileDo):
        expanded = s.seq(s.star(s.seq(policy.guard, policy.body)), s.neg(policy.guard))
        return _eval(expanded, packets, max_iter, tol)
    if isinstance(policy, s.Star):
        return _eval_star(policy.body, packets, max_iter, tol)
    raise TypeError(f"unknown policy node {type(policy)!r}")


def _unroll(body: s.Policy, n: int) -> s.Policy:
    """The n-th unrolling ``p^(n)``: ``p^(0) = skip``, ``p^(n+1) = skip & p ; p^(n)``."""
    result: s.Policy = s.skip()
    for _ in range(n):
        result = s.Union((s.skip(), s.Seq((body, result))))
    return result


def _eval_star(
    body: s.Policy,
    packets: PacketSet,
    max_iter: int,
    tol: float,
) -> Dist[PacketSet]:
    """Evaluate ``p*`` as the limit of its finite unrollings (Lemma A.2).

    ``p^(0) = skip`` and ``p^(n+1) = skip & p ; p^(n)``; the sequence of
    output distributions is monotone in the CPO of Appendix A.1 and we
    stop as soon as two consecutive approximations agree (exactly for
    Fraction-valued distributions, up to ``tol`` otherwise).
    """
    previous: Dist[PacketSet] | None = None
    for n in range(max_iter):
        unrolled = _unroll(body, n)
        current = _eval(unrolled, packets, max_iter, tol)
        if previous is not None and current.close_to(previous, tolerance=tol):
            return current
        previous = current
    raise StarDivergenceError(
        "p* did not converge within the iteration bound; "
        "use the closed-form small-step semantics instead"
    )
