"""Analyses over network models: delivery, resilience, and latency.

Every distribution-backed entry point takes the engine that answers it
as ``backend=``: ``None`` (a fresh interpreter), an
:class:`~repro.core.interpreter.Interpreter`, a
:class:`~repro.backends.matrix.MatrixBackend`, or a persistent
:class:`~repro.service.AnalysisSession` (re-exported here lazily as
``repro.analysis.AnalysisSession``), which pools one compiled backend,
shards batched queries, and caches results across calls.
"""

from repro.analysis.queries import (
    delivery_probability,
    expected_value,
    field_distribution,
    output_distribution,
)
from repro.analysis.resilience import (
    compare_schemes,
    refinement_table,
    resilience_table,
)
from repro.analysis.latency import (
    expected_hop_count,
    hop_count_cdf,
    hop_count_distribution,
)

def __getattr__(name: str):
    # Lazy re-export: repro.service imports analysis helpers' siblings,
    # so the session class is resolved on first attribute access instead
    # of at import time (no circular import).
    if name == "AnalysisSession":
        from repro.service import AnalysisSession

        return AnalysisSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisSession",
    "compare_schemes",
    "delivery_probability",
    "expected_hop_count",
    "expected_value",
    "field_distribution",
    "hop_count_cdf",
    "hop_count_distribution",
    "output_distribution",
    "refinement_table",
    "resilience_table",
]
