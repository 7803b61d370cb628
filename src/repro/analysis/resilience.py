"""Resilience and refinement analyses (Figure 11(b) and 11(c)).

*k*-resilience asks whether a routing scheme delivers every ingress
packet with probability one when at most ``k`` links fail.  The check is
performed structurally (via the interpreter's possibility analysis), so
it is exact — no numerical tolerance is involved.  When schemes are not
fully resilient they can still be ranked by the refinement order ``<``
on their delivery behaviour, which is what Figure 11(c) reports.
"""

from __future__ import annotations

import weakref
from typing import Callable, Mapping, Sequence

from repro.core.distributions import Dist
from repro.core.equivalence import joint_distributions, output_distributions, relation
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import Packet
from repro.network.model import NetworkModel

#: Symbols used in the printed tables, matching the paper's figures.
CHECK = "✓"
CROSS = "✗"

ModelFactory = Callable[[str, int | None], NetworkModel]


class _Answers:
    """What the tables learned from one model factory.

    ``models`` maps ``(scheme, bound)`` to the model the factory built;
    ``dists`` maps ``(scheme, bound, exact, which)`` to the output
    distributions computed so far of that model's ``policy`` or its
    ``teleport`` spec (``which``), per ingress packet.
    """

    __slots__ = ("models", "dists")

    def __init__(self) -> None:
        self.models: dict[tuple[str, int | None], NetworkModel] = {}
        self.dists: dict[tuple, dict[Packet, Dist[Outcome]]] = {}

    def model(self, factory: ModelFactory, scheme: str, bound: int | None) -> NetworkModel:
        key = (scheme, bound)
        if key not in self.models:
            self.models[key] = factory(scheme, bound)
        return self.models[key]


#: One store per live factory; an entry goes when its factory does.
_STORES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _answers(factory: ModelFactory) -> _Answers:
    """The store of ``factory``; one that lasts this call if it cannot be
    weakly referenced."""
    try:
        return _STORES.setdefault(factory, _Answers())
    except TypeError:
        return _Answers()


def resilience_table(
    model_factory: ModelFactory,
    schemes: Sequence[str],
    failure_bounds: Sequence[int | None],
    backend=None,
) -> dict[str, dict[int | None, bool]]:
    """Evaluate *k*-resilience of several schemes (Figure 11(b)).

    ``model_factory(scheme, k)`` builds the network model of the given
    scheme under failure bound ``k`` (``None`` meaning unbounded), so a
    model is a value of ``(factory, scheme, k)``: the tables call the
    factory once per ``(scheme, k)`` and keep the model for as long as
    the factory lives, shared with :func:`refinement_table`.  The result
    maps scheme → {k → certainly-delivers}.

    The check is the interpreter's structural possibility analysis
    (:meth:`~repro.network.model.NetworkModel.certainly_delivers`), which
    is exact, on a fresh interpreter per model.  Passing an engine (an
    ``Interpreter``, a ``MatrixBackend`` or an
    :class:`~repro.service.AnalysisSession`, whose verdicts are cached)
    delegates to its ``certainly_delivers``, and every engine answers
    with that same analysis.
    """
    if backend is not None and not hasattr(backend, "certainly_delivers"):
        raise TypeError(
            f"backend {type(backend).__name__} does not support resilience queries; "
            "pass an Interpreter, a MatrixBackend or an AnalysisSession"
        )
    answers = _answers(model_factory)
    table: dict[str, dict[int | None, bool]] = {}
    for scheme in schemes:
        row: dict[int | None, bool] = {}
        for bound in failure_bounds:
            model = answers.model(model_factory, scheme, bound)
            if backend is not None:
                row[bound] = backend.certainly_delivers(model)
            else:
                row[bound] = model.certainly_delivers()
        table[scheme] = row
    return table


def refinement_table(
    model_factory: ModelFactory,
    scheme_pairs: Sequence[tuple[str, str]],
    failure_bounds: Sequence[int | None],
    exact: bool = False,
) -> dict[tuple[str, str], dict[int | None, str]]:
    """Compare schemes pairwise under each failure bound (Figure 11(c)).

    ``"teleport"`` may be used as a scheme name to compare against the
    teleportation specification.  Entries are ``"≡"``, ``"<"``, ``">"``,
    or ``"incomparable"``.

    ``model_factory(scheme, k)`` builds the model of ``(scheme, k)``, as
    for :func:`resilience_table`, so a side's output distributions are
    values of ``(factory, scheme, k, exact)``: each side is evaluated once
    per factory (sides a cell lacks are evaluated together, on one
    interpreter) and read by every pair it sits in.
    """
    answers = _answers(model_factory)
    table: dict[tuple[str, str], dict[int | None, str]] = {}
    for left, right in scheme_pairs:
        row: dict[int | None, str] = {}
        for bound in failure_bounds:
            owner = left if left != "teleport" else right
            reference = answers.model(model_factory, owner, bound)
            inputs = reference.ingress_packets
            keys, sides = [], {}
            for scheme in (left, right):
                if scheme == "teleport":
                    key, policy = (owner, bound, exact, "teleport"), reference.teleport
                else:
                    model = answers.model(model_factory, scheme, bound)
                    key, policy = (scheme, bound, exact, "policy"), model.policy
                sides[key] = policy
                keys.append(key)
            runs = []
            for key, policy in sides.items():
                known = answers.dists.setdefault(key, {})
                packets = [packet for packet in inputs if packet not in known]
                if packets:
                    runs.append((known, policy, packets))
            if runs:
                evaluated = joint_distributions(
                    [(policy, packets) for _, policy, packets in runs], exact
                )
                for (known, _, _), dists in zip(runs, evaluated):
                    known.update(dists)
            left_dists, right_dists = (
                {packet: answers.dists[key][packet] for packet in inputs}
                for key in keys
            )
            row[bound] = relation(left_dists, right_dists)
        table[(left, right)] = row
    return table


def compare_schemes(
    models: Mapping[str, NetworkModel], exact: bool = False
) -> dict[tuple[str, str], str]:
    """All pairwise refinement relations among a set of assembled models.

    Each model runs on an interpreter of its own, kept across all its
    pairs, and each of its ingress packets is evaluated once.
    """
    names = list(models)
    interpreters: dict[str, Interpreter] = {}
    known: dict[str, dict[Packet, Dist[Outcome]]] = {name: {} for name in names}

    def dists(name: str, inputs: Sequence[Packet]) -> dict[Packet, Dist[Outcome]]:
        have = known[name]
        missing = [packet for packet in inputs if packet not in have]
        if missing:
            if name not in interpreters:
                interpreters[name] = Interpreter(exact=exact)
            have.update(
                output_distributions(
                    models[name].policy, missing, interpreter=interpreters[name]
                )
            )
        return {packet: have[packet] for packet in inputs}

    results: dict[tuple[str, str], str] = {}
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            inputs = models[left].ingress_packets
            results[(left, right)] = relation(dists(left, inputs), dists(right, inputs))
    return results


def format_resilience_table(
    table: Mapping[str, Mapping[int | None, bool]],
    equivalence_label: str = "≡ teleport",
) -> str:
    """Render a resilience table in the style of Figure 11(b)."""
    bounds = sorted(
        {bound for row in table.values() for bound in row},
        key=lambda b: float("inf") if b is None else b,
    )
    header = ["k"] + [f"{scheme} {equivalence_label}" for scheme in table]
    lines = ["\t".join(header)]
    for bound in bounds:
        label = "∞" if bound is None else str(bound)
        cells = [CHECK if table[scheme][bound] else CROSS for scheme in table]
        lines.append("\t".join([label] + cells))
    return "\n".join(lines)


def format_refinement_table(
    table: Mapping[tuple[str, str], Mapping[int | None, str]]
) -> str:
    """Render a refinement table in the style of Figure 11(c)."""
    bounds = sorted(
        {bound for row in table.values() for bound in row},
        key=lambda b: float("inf") if b is None else b,
    )
    header = ["k"] + [f"{left} vs {right}" for left, right in table]
    lines = ["\t".join(header)]
    for bound in bounds:
        label = "∞" if bound is None else str(bound)
        cells = [table[pair][bound] for pair in table]
        lines.append("\t".join([label] + cells))
    return "\n".join(lines)
