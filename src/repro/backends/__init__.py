"""The float query engine and the PRISM export (§5–§6).

Two engines answer queries about compiled network models, and both are
passed as instances:

* :class:`~repro.core.interpreter.Interpreter` — FDD-compiled loop bodies
  plus the forward interpreter ("PNK"); ``Interpreter(exact=True)`` is
  the exact engine;
* :class:`MatrixBackend` — the batched sparse-matrix engine: compile
  once, factorize ``I - Q`` once, answer every ingress query by
  multi-RHS solves.

Both answer distributions, batches of them and certainty verdicts.  The
paper's PRISM backend ("PPNK") runs the PRISM binary, which cannot be
bundled; its translation stays as an export: :mod:`repro.backends.prism`
turns a guarded program into PRISM source
(``to_prism_source(translate_policy(...))``).

The matrix backend also ships compiled plans as manager-independent
specs (:meth:`~repro.backends.matrix.MatrixBackend.plan_payload` /
:meth:`~repro.backends.matrix.MatrixBackend.adopt_plan`), which is how
worker processes serve parallel sharded execution
(see :mod:`repro.service.procpool`).
"""

from repro.backends.matrix import MatrixBackend, QueryPlan

__all__ = ["MatrixBackend", "QueryPlan"]
