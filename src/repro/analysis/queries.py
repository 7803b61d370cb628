"""Basic quantitative queries on program output distributions.

These are the building blocks of the paper's analyses: the probability of
reaching the destination (delivery / SLA queries of §2), marginal
distributions of individual fields, and expectations of packet-derived
quantities (e.g. hop counts).

Every distribution-backed entry point of :mod:`repro.analysis` takes the
engine that answers it as ``backend=``: ``None`` (a fresh
:class:`~repro.core.interpreter.Interpreter`), an ``Interpreter``
(``Interpreter(exact=True)`` is the exact engine), a
:class:`~repro.backends.matrix.MatrixBackend`, or an
:class:`~repro.service.AnalysisSession`.  A shared instance keeps its
compiled plans and loop solutions across calls, and a session its
result cache.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core import syntax as s
from repro.core.answer import delivered_mass
from repro.core.distributions import Dist
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import Packet, _DropType
from repro.network.model import NetworkModel


def _distribution_engine(backend, exact: bool):
    """The engine that answers a distribution query.

    ``None`` is a fresh interpreter in the requested arithmetic.  With an
    engine, ``exact=True`` asserts what the engine already does, so only
    an ``Interpreter(exact=True)`` qualifies.
    """
    if backend is None:
        return Interpreter(exact=exact)
    if not hasattr(backend, "output_distribution"):
        raise TypeError(
            f"backend {type(backend).__name__} does not support distribution queries; "
            "pass an Interpreter, a MatrixBackend or an AnalysisSession"
        )
    if exact and not getattr(backend, "exact", False):
        raise ValueError(
            "exact=True requires an exact-mode backend instance; "
            "pass Interpreter(exact=True) or drop backend="
        )
    return backend


def output_distribution(
    model: NetworkModel | s.Policy,
    inputs: Iterable[Packet] | Packet | None = None,
    exact: bool = False,
    backend=None,
) -> Dist[Outcome]:
    """Output distribution of a model (uniform over its ingress set by default).

    ``backend`` is the engine that answers (see the module docstring); a
    shared instance reuses its compiled plans and solutions across calls.
    """
    policy, packets = _unpack(model, inputs)
    engine = _distribution_engine(backend, exact)
    return engine.output_distribution(policy, Dist.uniform(packets))


def delivery_probability(
    model: NetworkModel | s.Policy,
    delivered: s.Predicate | Callable[[Packet], bool] | None = None,
    inputs: Iterable[Packet] | Packet | None = None,
    exact: bool = False,
    backend=None,
) -> float:
    """Probability that a packet (uniform over the ingress set) is delivered."""
    _, packets = _unpack(model, inputs)
    if delivered is None:
        if not isinstance(model, NetworkModel):
            raise ValueError("a delivered-predicate is required for bare policies")
        delivered = model.delivered
    dist = output_distribution(model, inputs=packets, exact=exact, backend=backend)
    return float(delivered_mass(dist, delivered))


def field_distribution(dist: Dist[Outcome], field: str) -> Dist[int | None]:
    """Marginal distribution of one packet field (``None`` for dropped packets)."""
    return dist.map(lambda out: None if isinstance(out, _DropType) else out.get(field))


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
