"""Reference implementations kept as test oracles, not as library code.

The library has one implementation of each kernel; what it replaced
lives here, verbatim, so the tests (and the fig7 harness, which records
both kernels' absolute seconds) can hold the fast path to the slow
one's answers.  The dense Gauss–Jordan oracle of the exact absorption
solver sits beside its tests in ``test_exact_solver.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, MutableMapping

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.distributions import Dist
from repro.core.fdd.matrix import (
    DomainTooLargeError,
    SymbolicPacket,
    TransitionMatrix,
    class_transition,
    enumerate_classes,
    matrix_domains,
    project_class,
)
from repro.core.fdd.node import FddNode
from repro.core.packet import _DropType


def fdd_to_matrix_reference(
    node: FddNode,
    extra_values: Mapping[str, Iterable[int]] | None = None,
    limit: int | None = 1_000_000,
    seeds: Iterable[SymbolicPacket] | None = None,
    absorbing_when: Callable[[SymbolicPacket], bool] | None = None,
    row_cache: MutableMapping[SymbolicPacket, Dist] | None = None,
) -> TransitionMatrix:
    """Pre-vectorization matrix assembly, kept verbatim as the oracle of
    :func:`repro.core.fdd.matrix.fdd_to_matrix`.

    Two passes (BFS exploration, then per-row assembly), ``Dist``-valued
    rows via :func:`class_transition`, and per-nonzero ``list.append`` —
    including the historical quirk that without a ``row_cache`` every
    class's row is computed twice.
    """
    domains = matrix_domains(node, extra_values)

    if seeds is None:
        classes = enumerate_classes(domains, limit=limit)
    else:
        frontier = [project_class(cls, domains) for cls in seeds]
        seen: dict[SymbolicPacket, None] = dict.fromkeys(frontier)
        order: list[SymbolicPacket] = list(seen)
        cursor = 0
        while cursor < len(order):
            cls = order[cursor]
            cursor += 1
            if absorbing_when is not None and absorbing_when(cls):
                continue
            row = row_cache.get(cls) if row_cache is not None else None
            if row is None:
                row = class_transition(node, cls)
                if row_cache is not None:
                    row_cache[cls] = row
            for outcome in row.support():
                if isinstance(outcome, _DropType) or outcome in seen:
                    continue
                seen[outcome] = None
                order.append(outcome)
            if limit is not None and len(order) > limit:
                raise DomainTooLargeError(
                    f"reachable symbolic space exceeds the limit {limit}"
                )
        classes = order

    index = {cls: i for i, cls in enumerate(classes)}
    drop_index = len(classes)

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, cls in enumerate(classes):
        if absorbing_when is not None and absorbing_when(cls):
            rows.append(i)
            cols.append(i)
            data.append(1.0)
            continue
        row = row_cache.get(cls) if row_cache is not None else None
        if row is None:
            row = class_transition(node, cls)
            if row_cache is not None:
                row_cache[cls] = row
        for outcome, prob in row.items():
            j = drop_index if isinstance(outcome, _DropType) else index[outcome]
            rows.append(i)
            cols.append(j)
            data.append(float(prob))
    # The drop row is absorbing.
    rows.append(drop_index)
    cols.append(drop_index)
    data.append(1.0)

    size = len(classes) + 1
    matrix = csr_matrix((data, (rows, cols)), shape=(size, size))
    return TransitionMatrix(
        classes=classes,
        matrix=matrix,
        domains={f: tuple(sorted(v)) for f, v in domains.items()},
    )


def matrices_identical(vectorized, reference, tolerance=1e-12):
    """Entry-identical as functions of (source class, target class).

    Seeded class *discovery order* is not part of the contract: the
    reference BFS expands ``Dist.support()`` (a frozenset, hash-ordered)
    while the vectorized pass expands outcomes in row order, so the same
    class set may be indexed differently.  Align the reference onto the
    vectorized indexing (drop column last in both) before demanding
    entry-identity within ``tolerance``.
    """
    assert set(vectorized.classes) == set(reference.classes)
    assert vectorized.domains == reference.domains
    assert vectorized.matrix.shape == reference.matrix.shape
    ref_index = {cls: i for i, cls in enumerate(reference.classes)}
    perm = [ref_index[cls] for cls in vectorized.classes] + [len(reference.classes)]
    aligned = reference.matrix[perm, :][:, perm]
    delta = (vectorized.matrix - aligned).toarray()
    assert np.abs(delta).max(initial=0.0) <= tolerance
