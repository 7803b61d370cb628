"""Resilience and refinement analyses (Figure 11(b) and 11(c)).

*k*-resilience asks whether a routing scheme delivers every ingress
packet with probability one when at most ``k`` links fail.  The check is
performed structurally (via the interpreter's possibility analysis), so
it is exact — no numerical tolerance is involved.  When schemes are not
fully resilient they can still be ranked by the refinement order ``<``
on their delivery behaviour, which is what Figure 11(c) reports.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.backends import resolve_backend
from repro.core.equivalence import compare
from repro.network.model import NetworkModel

#: Symbols used in the printed tables, matching the paper's figures.
CHECK = "✓"
CROSS = "✗"


def resilience_table(
    model_factory: Callable[[str, int | None], NetworkModel],
    schemes: Sequence[str],
    failure_bounds: Sequence[int | None],
    backend=None,
    session=None,
) -> dict[str, dict[int | None, bool]]:
    """Evaluate *k*-resilience of several schemes (Figure 11(b)).

    ``model_factory(scheme, k)`` must build the network model of the given
    scheme under failure bound ``k`` (``None`` meaning unbounded).  The
    result maps scheme → {k → certainly-delivers}.

    The check is the interpreter's structural possibility analysis
    (:meth:`~repro.network.model.NetworkModel.certainly_delivers`), which
    is exact.  Passing a backend (e.g. ``"matrix"``) delegates to its
    ``certainly_delivers``, and every backend answers with that same
    analysis.  ``session`` serves the sweep from a persistent
    :class:`~repro.service.AnalysisSession` (cached verdicts); it is
    mutually exclusive with ``backend``.
    """
    from repro.analysis.queries import _with_session

    engine = resolve_backend(_with_session(backend, session))
    if engine is not None and not hasattr(engine, "certainly_delivers"):
        raise TypeError(
            f"backend {type(engine).__name__} does not support resilience "
            "queries; use 'native' or 'matrix'"
        )
    table: dict[str, dict[int | None, bool]] = {}
    for scheme in schemes:
        row: dict[int | None, bool] = {}
        for bound in failure_bounds:
            model = model_factory(scheme, bound)
            if engine is not None:
                row[bound] = engine.certainly_delivers(model)
            else:
                row[bound] = model.certainly_delivers()
        table[scheme] = row
    return table


def refinement_table(
    model_factory: Callable[[str, int | None], NetworkModel],
    scheme_pairs: Sequence[tuple[str, str]],
    failure_bounds: Sequence[int | None],
    exact: bool = False,
) -> dict[tuple[str, str], dict[int | None, str]]:
    """Compare schemes pairwise under each failure bound (Figure 11(c)).

    ``"teleport"`` may be used as a scheme name to compare against the
    teleportation specification.  Entries are ``"≡"``, ``"<"``, ``">"``,
    or ``"incomparable"``.
    """
    table: dict[tuple[str, str], dict[int | None, str]] = {}
    for left, right in scheme_pairs:
        row: dict[int | None, str] = {}
        for bound in failure_bounds:
            reference = model_factory(
                left if left != "teleport" else right, bound
            )
            left_policy = reference.teleport if left == "teleport" else reference.policy
            right_policy = (
                reference.teleport
                if right == "teleport"
                else model_factory(right, bound).policy
            )
            row[bound] = compare(
                left_policy, right_policy, reference.ingress_packets, exact=exact
            )
        table[(left, right)] = row
    return table


def compare_schemes(
    models: Mapping[str, NetworkModel], exact: bool = False
) -> dict[tuple[str, str], str]:
    """All pairwise refinement relations among a set of assembled models."""
    names = list(models)
    results: dict[tuple[str, str], str] = {}
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            results[(left, right)] = compare(
                models[left].policy,
                models[right].policy,
                models[left].ingress_packets,
                exact=exact,
            )
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
