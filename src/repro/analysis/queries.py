"""Basic quantitative queries on program output distributions.

These are the building blocks of the paper's analyses: the probability of
reaching the destination (delivery / SLA queries of §2), marginal
distributions of individual fields, and expectations of packet-derived
quantities (e.g. hop counts).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.backends import resolve_backend
from repro.core import syntax as s
from repro.core.answer import delivered_mass
from repro.core.distributions import Dist
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import Packet, _DropType
from repro.network.model import NetworkModel

#: Type accepted by the ``backend=`` parameter of the analysis entry
#: points: a registry name ("native", "matrix"), a backend
#: instance with an ``output_distribution`` method, or ``None`` for the
#: classic per-query forward interpreter.
Backend = object


def _with_session(backend, session):
    """Fold ``session=`` into ``backend=`` (they are mutually exclusive).

    An :class:`~repro.service.session.AnalysisSession` implements the
    engine protocol (``output_distribution`` / ``certainly_delivers``),
    so the analysis entry points treat a session exactly like a shared
    backend instance — but one whose answers flow through the session's
    canonical-FDD-keyed result cache.
    """
    if session is None:
        return backend
    if backend is not None:
        raise ValueError("pass either backend= or session=, not both")
    return session


def _distribution_engine(backend, exact: bool):
    """Resolve ``backend=`` for a distribution query, validating conflicts.

    ``exact=True`` is compatible with a backend only when the resolved
    backend itself runs in exact mode (e.g. a ``NativeBackend(exact=True)``
    instance): the flag then simply asserts what the engine already does.
    Registry *names* instantiate backends with their defaults (float), so
    ``exact=True`` with ``backend="native"`` is still rejected — configure
    the instance instead.
    """
    engine = resolve_backend(backend)
    if engine is None:
        return None
    if exact and not getattr(engine, "exact", False):
        raise ValueError(
            "exact=True requires an exact-mode backend instance; configure the "
            "backend itself (e.g. NativeBackend(exact=True)) or drop backend="
        )
    if not hasattr(engine, "output_distribution"):
        raise TypeError(
            f"backend {type(engine).__name__} does not support distribution "
            "queries; use 'native' or 'matrix'"
        )
    return engine


def output_distribution(
    model: NetworkModel | s.Policy,
    inputs: Iterable[Packet] | Packet | None = None,
    exact: bool = False,
    backend: Backend | str | None = None,
    session=None,
) -> Dist[Outcome]:
    """Output distribution of a model (uniform over its ingress set by default).

    ``backend`` selects the query engine: ``None`` runs a fresh forward
    interpreter; a registry name or backend instance (e.g. ``"matrix"``)
    delegates to that backend — a shared instance reuses its compiled
    matrices and factorizations across calls.  ``session`` routes the
    query through a persistent :class:`~repro.service.AnalysisSession`
    (shared backend plus result cache); it is mutually exclusive with
    ``backend``.
    """
    policy, packets = _unpack(model, inputs)
    engine = _distribution_engine(_with_session(backend, session), exact)
    if engine is not None:
        return engine.output_distribution(policy, Dist.uniform(packets))
    interp = Interpreter(exact=exact)
    return interp.run(policy, Dist.uniform(packets))


def delivery_probability(
    model: NetworkModel | s.Policy,
    delivered: s.Predicate | Callable[[Packet], bool] | None = None,
    inputs: Iterable[Packet] | Packet | None = None,
    exact: bool = False,
    backend: Backend | str | None = None,
    session=None,
) -> float:
    """Probability that a packet (uniform over the ingress set) is delivered."""
    _, packets = _unpack(model, inputs)
    if delivered is None:
        if not isinstance(model, NetworkModel):
            raise ValueError("a delivered-predicate is required for bare policies")
        delivered = model.delivered
    dist = output_distribution(
        model, inputs=packets, exact=exact, backend=backend, session=session
    )
    return float(delivered_mass(dist, delivered))


def field_distribution(dist: Dist[Outcome], field: str) -> Dist[int | None]:
    """Marginal distribution of one packet field (``None`` for dropped packets)."""
    return dist.map(
        lambda out: None if isinstance(out, _DropType) else out.get(field)
    )


def expected_value(
    dist: Dist[Outcome],
    value: Callable[[Packet], float],
    condition: Callable[[Packet], bool] | None = None,
) -> float:
    """Expectation of ``value`` over delivered packets, optionally conditioned.

    Dropped packets are always excluded; ``condition`` further restricts
    the outcomes (the distribution is renormalised over the remaining
    mass, matching "conditioned on delivery" quantities like Figure 12(c)).
    """
    total = 0.0
    mass = 0.0
    for outcome, prob in dist.items():
        if isinstance(outcome, _DropType):
            continue
        if condition is not None and not condition(outcome):
            continue
        total += float(prob) * float(value(outcome))
        mass += float(prob)
    if mass == 0.0:
        raise ZeroDivisionError("no probability mass satisfies the condition")
    return total / mass


def _unpack(
    model: NetworkModel | s.Policy, inputs: Iterable[Packet] | Packet | None
) -> tuple[s.Policy, list[Packet]]:
    if isinstance(model, NetworkModel):
        policy = model.policy
        packets = model.ingress_packets if inputs is None else inputs
    else:
        policy = model
        if inputs is None:
            raise ValueError("input packets are required for bare policies")
        packets = inputs
    if isinstance(packets, Packet):
        packets = [packets]
    return policy, list(packets)
