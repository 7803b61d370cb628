"""repro — a reproduction of McNetKAT (PLDI 2019).

McNetKAT is a scalable verifier for the guarded, history-free fragment of
Probabilistic NetKAT.  This package provides:

* :mod:`repro.core` — the ProbNetKAT language, its Markov-chain semantics,
  the probabilistic-FDD compiler, and the forward interpreter;
* :mod:`repro.backends` — the batched matrix backend (the exact engine is
  ``Interpreter(exact=True)``), and the ProbNetKAT→PRISM translation as a
  source export;
* :mod:`repro.topology`, :mod:`repro.routing`, :mod:`repro.failure`,
  :mod:`repro.network` — data-center topologies, routing schemes (ECMP,
  F10), failure models, and network model builders;
* :mod:`repro.analysis` — delivery probability, resilience, and latency
  queries;
* :mod:`repro.service` — the persistent, sharded analysis service: an
  ``AnalysisSession`` compiles models once and serves concurrent query
  streams (``python -m repro.service`` is its CLI).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
