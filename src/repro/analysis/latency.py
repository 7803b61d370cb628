"""Path-stretch / latency analyses (Figure 12(b) and 12(c)).

Resilient routing schemes trade longer paths for higher delivery
probability.  With a hop counter added to the network model
(``count_hops=True`` in :func:`repro.network.model.build_model` or
:func:`repro.routing.f10.f10_model`) these helpers compute the
distribution of hop counts of delivered traffic, its CDF, and the
expected hop count conditioned on delivery.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.queries import _distribution_engine
from repro.core.distributions import Dist
from repro.network.model import NetworkModel


def _require_hops(model: NetworkModel) -> str:
    if model.hops_field is None:
        raise ValueError("the model was built without a hop counter; pass count_hops=True")
    return model.hops_field


def hop_count_distribution(
    model: NetworkModel, exact: bool = False, backend=None
) -> Dist[int | None]:
    """Joint distribution of hop counts over the uniform ingress set.

    Dropped packets map to ``None``; delivered packets map to the value of
    the model's hop counter.  ``backend`` is the engine that answers (see
    :mod:`repro.analysis.queries`); a shared matrix backend makes the
    all-ingress query a single batched solve, and an
    :class:`~repro.service.AnalysisSession` answers it through its result
    cache.
    """
    hops_field = _require_hops(model)
    engine = _distribution_engine(backend, exact)
    output = engine.output_distribution(model.policy, Dist.uniform(model.ingress_packets))
    return output.map(lambda out: out.get(hops_field) if model.is_delivered(out) else None)


def hop_count_cdf(
    model: NetworkModel, max_hops: int | None = None, exact: bool = False, backend=None
) -> dict[int, float]:
    """``P[delivered within ≤ h hops]`` as a function of ``h`` (Figure 12(b)).

    The values are fractions of *all* traffic (not conditioned on
    delivery), so the curve plateaus at the overall delivery probability,
    exactly like the paper's plot.
    """
    dist = hop_count_distribution(model, exact=exact, backend=backend)
    observed = [h for h in dist.support() if h is not None]
    top = max_hops if max_hops is not None else (max(observed) if observed else 0)
    cdf: dict[int, float] = {}
    running = 0.0
    for hops in range(0, top + 1):
        running += float(dist(hops))
        cdf[hops] = running
    return cdf


def expected_hop_count(model: NetworkModel, exact: bool = False, backend=None) -> float:
    """Expected hop count conditioned on delivery (Figure 12(c))."""
    dist = hop_count_distribution(model, exact=exact, backend=backend)
    total = 0.0
    mass = 0.0
    for hops, prob in dist.items():
        if hops is None:
            continue
        total += float(prob) * hops
        mass += float(prob)
    if mass == 0.0:
        raise ZeroDivisionError("no traffic is delivered; expected hop count undefined")
    return total / mass


def hop_count_series(
    models: Mapping[str, NetworkModel],
    max_hops: int | None = None,
    exact: bool = False,
    backend=None,
) -> dict[str, dict[int, float]]:
    """CDF series for several labelled models (one plot line each).

    The engine is resolved once, so all models in the series share one
    instance (a fresh interpreter for ``backend=None``) and therefore its
    compiled-plan and loop caches.
    """
    engine = _distribution_engine(backend, exact)
    return {
        label: hop_count_cdf(model, max_hops=max_hops, exact=exact, backend=engine)
        for label, model in models.items()
    }
