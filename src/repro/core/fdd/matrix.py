"""Conversion between probabilistic FDDs and sparse stochastic matrices.

This module implements *dynamic domain reduction* (§5.1, Figure 5): rather
than indexing matrices by the full packet space, packets are grouped into
symbolic equivalence classes determined by the values each field is
actually tested against or assigned to.  A :class:`SymbolicPacket` assigns
every relevant field either one of those mentioned values or the wildcard
``*`` ("any other value"), exactly like the symbolic packets
``pt=1, pt=2, pt=3, pt=*`` of the paper's example.

The main entry points are:

* :class:`ClassChain` — the chain an FDD induces over the classes
  reachable from some seeds: it owns the ``class -> int`` index and the
  rows, as CSR buffers over those ints, and only ever appends;
* :func:`fdd_to_matrix` — its one-shot front door: convert an FDD into a
  sparse stochastic matrix over symbolic packet classes (plus the drop
  outcome);
* :func:`matrix_to_fdd` — convert class-indexed transition rows back into
  a canonical FDD (used after solving loops);
* :func:`enumerate_classes` — enumerate the symbolic domain.

Exploration and assembly are one pass over whole BFS frontiers: a chain
walks its diagram flattened over the class layout
(:class:`~repro.core.fdd.flat.FlatDiagram`), a class is a row of int
codes with one fixed-width key, and each frontier's rows are built and
its successors looked up by array operations.  The per-class walk this
replaced is the oracle of the equivalence tests (``tests/oracles.py``);
it is not part of the library.

Import rule: numpy and SciPy are imported inside the functions that
build or walk arrays (a :class:`ClassChain`, :func:`class_row`), never at
module level; annotations import them under ``TYPE_CHECKING``.  The exact
paths (:func:`class_transition`, :func:`enumerate_classes`) never load
the float stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping  # typing.Mapping's isinstance is ~100x slower
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.distributions import Dist
from repro.core.fdd.actions import Action, ActionOrDrop
from repro.core.fdd.flat import ClassLayout, ClassRow, FlatDiagram, KeyIndex
from repro.core.fdd.node import FddManager, FddNode, leaf_of, mentioned_values
from repro.core.packet import DROP, Packet, _DropType

if TYPE_CHECKING:
    import numpy as np
    from scipy.sparse import csr_matrix

#: Marker for "any value not explicitly mentioned by the program".
WILDCARD: None = None

#: The most classes of one frontier a chain steps at once.
_CLASSES_PER_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class SymbolicPacket:
    """An equivalence class of packets under dynamic domain reduction.

    Each relevant field is mapped either to a concrete mentioned value or
    to the wildcard ``None`` meaning "some value not mentioned anywhere in
    the program".  Two concrete packets in the same class are treated
    identically by the program the domain was derived from.

    Classes are Markov-chain states and dict keys throughout assembly,
    solve and decode, so the hash is computed once at construction (as
    :class:`~repro.core.packet.Packet` does) rather than on every probe.
    """

    values: tuple[tuple[str, int | None], ...]

    def __init__(self, values: Mapping[str, int | None] | Iterable[tuple[str, int | None]]):
        items = tuple(sorted(values.items() if isinstance(values, Mapping) else values))
        object.__setattr__(self, "values", items)
        object.__setattr__(self, "_hash", hash(items))

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[str, int | None], ...]) -> "SymbolicPacket":
        """The class over ``items`` already in canonical (sorted) order —
        e.g. derived position-wise from an existing class's ``values``;
        the constructor of the assembly hot loops."""
        symbolic = object.__new__(cls)
        object.__setattr__(symbolic, "values", items)
        object.__setattr__(symbolic, "_hash", hash(items))
        return symbolic

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __reduce__(self):
        # String hashes are per-process: never ship the cached one.
        return (SymbolicPacket, (self.values,))

    def value(self, field: str) -> int | None:
        """The class value of ``field`` (``None`` for wildcard or unknown field)."""
        for name, value in self.values:
            if name == field:
                return value
        return None

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.values)

    def as_dict(self) -> dict[str, int | None]:
        return dict(self.values)

    def satisfies_test(self, field: str, value: int) -> bool:
        """Whether packets in this class satisfy the test ``field = value``.

        The test value is always one of the mentioned values, so the
        wildcard class never satisfies it.
        """
        return self.value(field) == value

    def apply_action(self, action: ActionOrDrop) -> "SymbolicPacket | _DropType":
        """Apply an FDD action to the class (drop propagates)."""
        if isinstance(action, _DropType):
            return DROP
        if action.is_identity():
            return self
        mods = dict(action.mods)
        # Fast path for actions confined to the class's own fields: the
        # stored pairs are already sorted, so rebuild them in one pass
        # (this is the hot loop of reachable-class exploration).
        items = tuple(
            (field, mods.pop(field)) if field in mods else (field, value)
            for field, value in self.values
        )
        if not mods:
            return SymbolicPacket._from_sorted(items)
        merged = dict(items)
        merged.update(mods)
        return SymbolicPacket(merged)

    def representative(self, fresh: Mapping[str, int]) -> Packet:
        """A concrete packet in this class.

        ``fresh`` supplies, per field, a value *not* mentioned by the
        program, used to instantiate wildcards.
        """
        concrete: dict[str, int] = {}
        for field, value in self.values:
            concrete[field] = fresh[field] if value is None else value
        return Packet(concrete)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{f}={'*' if v is None else v}" for f, v in self.values
        )
        return f"SymbolicPacket({inner})"


class DomainTooLargeError(RuntimeError):
    """Raised when the symbolic domain exceeds the configured limit."""


def fresh_values(domains: Mapping[str, Iterable[int]]) -> dict[str, int]:
    """For each field, a value not contained in its mentioned-value set."""
    result: dict[str, int] = {}
    for field, values in domains.items():
        mentioned = set(values)
        candidate = 0
        while candidate in mentioned:
            candidate += 1
        result[field] = candidate
    return result


def domain_size(domains: Mapping[str, Iterable[int]]) -> int:
    """Number of symbolic classes in the product domain (wildcards included)."""
    size = 1
    for values in domains.values():
        size *= len(set(values)) + 1
    return size


def enumerate_classes(
    domains: Mapping[str, Iterable[int]],
    limit: int | None = None,
) -> list[SymbolicPacket]:
    """Enumerate the symbolic packet classes of the product domain.

    Each field ranges over its mentioned values plus the wildcard.  The
    enumeration is deterministic (fields sorted, values sorted, wildcard
    last).  Raises :class:`DomainTooLargeError` when the product exceeds
    ``limit``.
    """
    normalised: dict[str, list[int | None]] = {
        field: sorted(set(values)) + [WILDCARD]
        for field, values in sorted(domains.items())
    }
    if limit is not None:
        total = 1
        for choices in normalised.values():
            total *= len(choices)
        if total > limit:
            raise DomainTooLargeError(
                f"symbolic domain has {total} classes, exceeding the limit {limit}; "
                "use the forward interpreter for large programs"
            )
    fields = list(normalised)
    # Iterative product enumeration: wide domains (thousands of mentioned
    # values per field) must not be bounded by the Python recursion limit.
    return [
        SymbolicPacket(zip(fields, combo))
        for combo in itertools.product(*normalised.values())
    ]


def classify(packet: Packet, domains: Mapping[str, Iterable[int]]) -> SymbolicPacket:
    """The symbolic class of a concrete packet under the given domain."""
    values: dict[str, int | None] = {}
    for field, mentioned in domains.items():
        value = packet.get(field)
        values[field] = value if value in mentioned else WILDCARD
    return SymbolicPacket(values)


def evaluate_class(node: FddNode, cls: SymbolicPacket) -> Dist[ActionOrDrop]:
    """Evaluate an FDD on a symbolic class, returning its action distribution.

    Well-defined because the class fixes the outcome of every test the FDD
    can perform (the domain includes every mentioned value).
    """
    return leaf_of(node, dict(cls.values).get).dist


def class_transition(node: FddNode, cls: SymbolicPacket) -> Dist["SymbolicPacket | _DropType"]:
    """The distribution over successor classes induced by an FDD.

    Returns a :class:`Dist` (exact weights preserved) — the API exact-mode
    callers rely on.  Float assembly walks whole frontiers instead
    (:class:`ClassChain`).
    """
    return evaluate_class(node, cls).map(cls.apply_action)


def class_row(node: FddNode, cls: SymbolicPacket) -> ClassRow:
    """The float transition row of ``cls`` as parallel tuples.

    The float counterpart of :func:`class_transition`, taken by the walk
    a chain takes for a whole frontier (:meth:`FlatDiagram.step`) over a
    layout of the class's own fields: the leaf's weights floated, its
    actions applied, duplicates merged.  The diagram must write only
    fields the class has.
    """
    domains = {name: set() if value is None else {value} for name, value in cls.values}
    for name, values in _mentioned_values_memo(node).items():
        if name in domains:
            domains[name] |= values
    layout = ClassLayout(domains)
    (row,) = FlatDiagram(node, layout).rows([layout.encode(cls.values)])
    return ClassRow(
        tuple(
            outcome if outcome is DROP else SymbolicPacket._from_sorted(layout.pairs(outcome))
            for outcome in row.outcomes
        ),
        row.probs,
    )


@dataclass
class TransitionMatrix:
    """A sparse right-stochastic matrix over symbolic packet classes.

    The last column/row index (``len(classes)``) represents the drop
    outcome, which is absorbing by convention.  ``assembled_rows`` counts
    the classes written into this matrix, each once.
    """

    classes: list[SymbolicPacket]
    matrix: csr_matrix
    domains: dict[str, tuple[int, ...]]
    assembled_rows: int = field(default=0, compare=False)

    @property
    def drop_index(self) -> int:
        return len(self.classes)

    def __post_init__(self) -> None:
        self._index = {cls: i for i, cls in enumerate(self.classes)}

    def row(self, cls: SymbolicPacket) -> Dist["SymbolicPacket | _DropType"]:
        """The output distribution of one class as a :class:`Dist`."""
        i = self._index[cls]
        start, end = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        weights: dict[SymbolicPacket | _DropType, float] = {}
        for idx in range(start, end):
            j = self.matrix.indices[idx]
            prob = float(self.matrix.data[idx])
            outcome = DROP if j == self.drop_index else self.classes[j]
            weights[outcome] = weights.get(outcome, 0.0) + prob
        return Dist(weights, check=False)

    def is_stochastic(self, tolerance: float = 1e-9) -> bool:
        sums = self.matrix.sum(axis=1)
        return bool(abs(sums - 1.0).max() <= tolerance)


def _mentioned_values_memo(node: FddNode) -> dict[str, set[int]]:
    """Per-manager memo of :func:`mentioned_values` (FDDs are immutable).

    Incremental exploration re-assembles the same body FDD on every
    growth step; the diagram walk collecting mentioned values is pure, so
    it runs once per distinct node per manager.  The memo lives on the
    manager (uids are only unique within one), and dies with it.
    """
    manager = node.manager
    memo = getattr(manager, "_mentioned_memo", None)
    if memo is None:
        memo = manager._mentioned_memo = {}
    cached = memo.get(node.uid)
    if cached is None:
        cached = memo[node.uid] = mentioned_values(node)
    return cached


def matrix_domains(
    node: FddNode,
    extra_values: Mapping[str, Iterable[int]] | None = None,
) -> dict[str, set[int]]:
    """The symbolic field domains induced by an FDD (plus extra values)."""
    domains: dict[str, set[int]] = {
        f: set(v) for f, v in _mentioned_values_memo(node).items()
    }
    for field, values in (extra_values or {}).items():
        domains.setdefault(field, set()).update(values)
    return domains


def project_class(cls: SymbolicPacket, domains: Mapping[str, Iterable[int]]) -> SymbolicPacket:
    """Re-express a class over (possibly different) domains.

    Fields absent from ``domains`` are dropped; values not mentioned by
    the target domain collapse to the wildcard.  Used to align seed
    classes produced against one FDD's domain with another's.
    """
    lookup = dict(cls.values).get
    values: dict[str, int | None] = {}
    for field, mentioned in domains.items():
        value = lookup(field)
        values[field] = value if value in mentioned else WILDCARD
    return SymbolicPacket(values)


class ClassChain:
    """The chain a diagram induces over the classes reachable from some seeds.

    This object owns the ``class -> int`` index everything downstream is
    written over.  States are append-only: state 0 is the drop outcome
    (absorbing by convention), every other state a class over ``layout``
    (a :class:`~repro.core.fdd.flat.ClassLayout` row of codes) in
    discovery order; sorted class keys map a class back to its state.
    The rows of the *transient* states — the ones ``absorbing`` did not
    freeze — are CSR buffers over those ints, in the order the leaf lists
    its actions (a class two actions reach is one entry).  An absorbing
    state has no stored row (its self-loop exists only in :meth:`matrix`).
    Nothing is ever rewritten: :meth:`explore` expands the classes it has
    not expanded and appends, so a chain fed its seeds in several calls
    holds the same rows as one fed them at once, up to the order of
    discovery, and an index handed out stays valid.  ``flat`` is the
    diagram flattened over the layout; a chain rebuilt over the same
    diagram and layout may be handed the old chain's.
    """

    def __init__(self, node: FddNode, layout: ClassLayout, flat: FlatDiagram | None = None):
        import numpy as np

        self.layout = layout
        self.flat = flat if flat is not None else FlatDiagram(node, layout)
        #: BFS frontiers expanded so far (each one array step, see :meth:`explore`).
        self.frontier_steps = 0
        self._size = 1  # states, drop included
        self._codes = np.zeros((16, len(self.layout.fields)), dtype=self.layout.dtype)
        self._transient = np.zeros(16, dtype=bool)
        self._index = KeyIndex(self.layout)
        # One (first row, states, counts, successors, probabilities) per block
        # of a frontier.
        self._chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._stored = 0

    def __len__(self) -> int:
        """States on the chain, drop included."""
        return self._size

    @property
    def states(self) -> list[SymbolicPacket | _DropType]:
        """Every state as a class (drop first): a view built on request."""
        return [DROP, *map(self.decode, self.codes_of(range(1, self._size)))]

    def codes_of(self, states: Iterable[int]) -> list[tuple[int, ...]]:
        """The code rows of (non-drop) ``states``."""
        import numpy as np

        picked = self._codes[np.fromiter(states, dtype=np.int64) - 1]
        return list(map(tuple, picked.tolist()))

    def codes_at(self, states: np.ndarray) -> np.ndarray:
        """The code rows of ``states`` as one array; drop's row is all wildcards."""
        import numpy as np

        codes = self._codes[np.maximum(states, 1) - 1]
        codes[states == 0] = 0
        return codes

    def decode(self, codes: tuple[int, ...]) -> SymbolicPacket:
        """The class a code row stands for."""
        return SymbolicPacket._from_sorted(self.layout.pairs(codes))

    @property
    def transient(self) -> np.ndarray:
        """Per state, whether it was expanded (drop and absorbing states not)."""
        return self._transient[: self._size]

    def states_of(self, codes: np.ndarray) -> np.ndarray:
        """The state of each row of ``codes``, ``-1`` where the chain has none."""
        return self.lookup(self.layout.keys(codes))

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The state of each class key (:meth:`ClassLayout.keys`), ``-1`` where none."""
        return self._index.find(keys)

    def _place(self, codes: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The states of the classes ``codes`` (with ``keys``), appending the
        unknown ones in the order they first occur."""
        states, new = self._index.number(keys, self._size)
        if len(new):
            self._append(codes[new])
        return states

    def _append(self, codes: np.ndarray) -> None:
        import numpy as np

        size = self._size + len(codes)
        if size > len(self._transient):
            capacity = 2 * size
            grown = np.zeros((capacity, self._codes.shape[1]), dtype=self._codes.dtype)
            grown[: len(self._codes)] = self._codes
            self._codes = grown
            flags = np.zeros(capacity, dtype=bool)
            flags[: len(self._transient)] = self._transient
            self._transient = flags
        self._codes[self._size - 1 : size - 1] = codes
        self._transient[self._size : size] = False
        self._size = size

    def explore(
        self,
        seeds: np.ndarray,
        absorbing: Callable[[np.ndarray], np.ndarray] | None = None,
        limit: int | None = None,
    ) -> int:
        """Append ``seeds`` (an array of code rows) and all they reach.

        Breadth-first, one whole frontier per step: the seeds the chain
        does not hold yet, then the classes they newly reach, and so on.
        A step takes the frontier's code rows, marks the ones ``absorbing``
        holds on (called with those rows; it returns a boolean per row),
        walks the rest through ``flat`` (:meth:`FlatDiagram.step`), finds
        each successor's state by its key — appending the unknown ones in
        the order they first occur — and appends the rows.  States and rows
        come out in the order a class-by-class FIFO walk would give them.
        Returns the number of rows stored before the call, for
        :meth:`rows_from`.  On an error (``limit`` exceeded) the chain is
        left as it was.
        """
        import numpy as np

        mark, stored, chunks = self._size, self._stored, len(self._chunks)
        saved = (self._index.keys, self._index.numbers, self.frontier_steps)
        seeds = self.layout.array(seeds)
        try:
            self._place(seeds, self.layout.keys(seeds))
            start = mark
            while start < self._size:
                end = self._size
                self.frontier_steps += 1
                codes = self._codes[start - 1 : end - 1]
                moves = np.ones(end - start, dtype=bool) if absorbing is None else ~absorbing(codes)
                self._transient[start:end] = moves
                expanding, owners = codes[moves], start + np.flatnonzero(moves)
                # In blocks, so a step's arrays (entries × fields) stay bounded.
                for at in range(0, len(owners), _CLASSES_PER_BLOCK):
                    rows = owners[at : at + _CLASSES_PER_BLOCK]
                    owner, successors, drop, keys, probs = self.flat.step(
                        expanding[at : at + _CLASSES_PER_BLOCK]
                    )
                    targets = np.zeros(len(owner), dtype=np.int64)
                    live = ~drop
                    targets[live] = self._place(successors[live], keys[live])
                    counts = np.bincount(owner, minlength=len(rows))
                    self._chunks.append((self._stored, rows, counts, targets, probs))
                    self._stored += len(rows)
                if limit is not None and self._size - 1 > limit:
                    raise DomainTooLargeError(
                        f"reachable symbolic space exceeds the limit {limit}"
                    )
                start = end
        except BaseException:
            self._size, self._stored = mark, stored
            self._index.keys, self._index.numbers, self.frontier_steps = saved
            del self._chunks[chunks:]
            raise
        return stored

    def rows_from(self, stored: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows stored since ``stored``, as arrays for the solver.

        ``(states, indptr, successors, probabilities)``: the transient
        states the rows belong to and their CSR slice (``indptr`` starting
        at 0), successors as state indices.
        """
        import numpy as np

        chunks = [chunk for chunk in self._chunks if chunk[0] >= stored]
        if not chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), empty, np.zeros(0)
        counts = np.concatenate([chunk[2] for chunk in chunks])
        return (
            np.concatenate([chunk[1] for chunk in chunks]),
            np.concatenate(([0], np.cumsum(counts))),
            np.concatenate([chunk[3] for chunk in chunks]),
            np.concatenate([chunk[4] for chunk in chunks]),
        )

    def matrix(self) -> "TransitionMatrix":
        """The chain as a :class:`TransitionMatrix` (drop last, self-loops in)."""
        import numpy as np
        from scipy.sparse import csr_matrix

        n = self._size - 1
        rows, indptr, successors, probabilities = self.rows_from(0)
        row_of = np.repeat(rows, np.diff(indptr)) - 1
        col_of = successors - 1
        col_of[col_of < 0] = n
        loops = np.append(np.flatnonzero(~self.transient[1:]), n)
        matrix = csr_matrix(
            (
                np.concatenate([probabilities, np.ones(len(loops))]),
                (np.concatenate([row_of, loops]), np.concatenate([col_of, loops])),
            ),
            shape=(n + 1, n + 1),
        )
        return TransitionMatrix(
            classes=self.states[1:],
            matrix=matrix,
            domains=self.layout.domains,
            assembled_rows=n,
        )


def fdd_to_matrix(
    node: FddNode,
    extra_values: Mapping[str, Iterable[int]] | None = None,
    limit: int | None = 1_000_000,
    seeds: Iterable[SymbolicPacket] | None = None,
    absorbing_when: Callable[[SymbolicPacket], bool] | None = None,
) -> TransitionMatrix:
    """Convert an FDD to a sparse stochastic matrix over symbolic classes.

    ``extra_values`` adds field values to the domain beyond those
    mentioned by the FDD itself (used when several FDDs must share one
    state space, e.g. a loop guard and its body).

    With ``seeds`` the full product domain is *not* enumerated; instead
    only the classes reachable from the seed classes are explored
    breadth-first (dynamic domain reduction restricted to the reachable
    subspace, the trick that lets network-scale models stay small).
    ``absorbing_when`` marks classes that should not be expanded further
    — they receive a self-loop row, turning the matrix into the absorbing
    chain of a loop whose exit condition is the predicate.  It is asked
    once per class, as the class's frontier is expanded.

    This is the one-shot front door of :class:`ClassChain`: one chain,
    one :meth:`~ClassChain.explore` over the seeds (or over the whole
    enumerated domain), read back as a :class:`TransitionMatrix`.  A
    caller whose seed set grows keeps the chain instead.
    """
    chain = ClassChain(node, ClassLayout(matrix_domains(node, extra_values)))
    layout = chain.layout
    absorbing = None
    if absorbing_when is not None:
        import numpy as np

        def absorbing(codes: np.ndarray) -> np.ndarray:
            classes = [chain.decode(row) for row in map(tuple, codes.tolist())]
            return np.fromiter(map(absorbing_when, classes), dtype=bool, count=len(classes))

    if seeds is None:
        classes = enumerate_classes(layout.domains, limit=limit)
        limit = None
    else:
        classes = seeds
    chain.explore([layout.encode(cls.values) for cls in classes], absorbing, limit)
    return chain.matrix()


def matrix_to_fdd(
    manager: FddManager,
    domains: Mapping[str, Sequence[int]],
    rows: Mapping[SymbolicPacket, Dist["SymbolicPacket | _DropType"]],
    default: FddNode | None = None,
) -> FddNode:
    """Rebuild an FDD from class-indexed transition rows.

    ``rows`` maps input classes to distributions over output classes (or
    drop).  Classes absent from ``rows`` fall back to ``default``
    (the drop leaf when not provided).  The output distribution of a class
    is encoded as a leaf whose actions write every concretely-valued field
    of the output class; wildcard output fields are left untouched (they
    can only arise when the field was untouched by the program).
    """
    default_node = default if default is not None else manager.false_leaf
    # Fields must be tested in the manager's global order or the resulting
    # diagram would violate the ordering invariant that restriction and
    # sequencing rely on.
    fields = sorted(domains, key=manager.field_rank)

    def leaf_for(dist: Dist["SymbolicPacket | _DropType"]) -> FddNode:
        weights: dict[ActionOrDrop, Fraction | float] = {}
        for outcome, prob in dist.items():
            if isinstance(outcome, _DropType):
                action: ActionOrDrop = DROP
            else:
                mods = {
                    f: v for f, v in outcome.values if v is not None
                }
                action = Action(mods)
            weights[action] = weights.get(action, Fraction(0)) + prob
        return manager.leaf(Dist(weights, check=False))

    # Build the diagram bottom-up, one field level at a time, with plain
    # loops: recursion over the per-field value chains would be bounded by
    # the interpreter stack for wide domains (thousands of switches).
    # Only classes present in ``rows`` are materialized — absent branches
    # collapse to ``default`` on their own — so time and memory are
    # O(|rows| · #fields), not O(product domain).
    if not fields:
        row = rows.get(SymbolicPacket({}))
        return default_node if row is None else leaf_for(row)

    level: dict[tuple[int | None, ...], FddNode] = {}
    for cls, row in rows.items():
        level[tuple(cls.value(field) for field in fields)] = leaf_for(row)

    for depth in range(len(fields) - 1, -1, -1):
        field = fields[depth]
        concrete = sorted(set(domains[field]))
        grouped: dict[tuple[int | None, ...], dict[int | None, FddNode]] = {}
        for combo, node in level.items():
            grouped.setdefault(combo[:depth], {})[combo[depth]] = node
        collapsed: dict[tuple[int | None, ...], FddNode] = {}
        for prefix, children in grouped.items():
            # The chain tests values in ascending order from the root, so
            # assemble it from the wildcard case backwards.
            node = children.get(WILDCARD, default_node)
            for value in reversed(concrete):
                node = manager.branch(field, value, children.get(value, default_node), node)
            collapsed[prefix] = node
        level = collapsed

    return level.get((), default_node)
