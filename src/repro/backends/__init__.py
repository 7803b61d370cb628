"""Analysis backends and the backend registry (§5–§6).

Two backends answer queries about compiled network models:

* ``native`` — FDD compilation plus the forward interpreter ("PNK");
* ``matrix`` — the batched sparse-matrix engine: compile once, factorize
  ``I - Q`` once, answer every ingress query by multi-RHS solves.

Both answer distributions, batches of them and certainty verdicts.  The
paper's PRISM backend ("PPNK") runs the PRISM binary, which cannot be
bundled; its translation stays as an export: :mod:`repro.backends.prism`
turns a guarded program into PRISM source
(``to_prism_source(translate_policy(...))``).

:func:`get_backend` instantiates a backend by name so analyses and the
service can select one with a plain string.  The matrix backend also
ships compiled plans as manager-independent specs
(:meth:`~repro.backends.matrix.MatrixBackend.plan_payload` /
:meth:`~repro.backends.matrix.MatrixBackend.adopt_plan`), which is how
worker processes serve parallel sharded execution
(see :mod:`repro.service.procpool`).
"""

from repro.backends.matrix import MatrixBackend, QueryPlan
from repro.backends.native import NativeBackend

#: Registry of backend names to backend classes.
BACKENDS = {
    "native": NativeBackend,
    "matrix": MatrixBackend,
}


def get_backend(name: str, **options):
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the backend constructor, e.g.
    ``get_backend("matrix", class_limit=10_000)``.
    """
    try:
        backend_class = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; available backends: {known}") from None
    return backend_class(**options)


def resolve_backend(backend):
    """Normalise a ``backend=`` argument: names become fresh instances.

    ``None`` and backend instances pass through unchanged, so analysis
    entry points can accept ``backend="matrix"`` as well as a shared,
    pre-warmed backend object.
    """
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


__all__ = [
    "BACKENDS",
    "MatrixBackend",
    "NativeBackend",
    "QueryPlan",
    "get_backend",
    "resolve_backend",
]
