"""Hash-consed probabilistic Forwarding Decision Diagrams (FDDs).

A probabilistic FDD (§5.1) is a rooted DAG whose interior nodes test a
packet field against a value (with true/false branches) and whose leaves
hold distributions over actions (field modifications or drop).  An FDD
denotes a function ``Pk -> Dist(Pk + ∅)``, i.e. a stochastic matrix over
the single-packet state space.

Nodes are interned ("hash-consed") by an :class:`FddManager` so that
structurally identical diagrams are represented by the same object; this
enables constant-time equality checks and memoised algorithms, exactly as
in BDD packages.  Diagrams respect a total order on tests
``(field, value)`` (field rank first, then value) and never contain
redundant tests, which keeps them canonical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.core.distributions import Dist
from repro.core.fdd.actions import DROP, IDENTITY, Action, ActionOrDrop
from repro.core.packet import Packet, _DropType


class FddNode:
    """Base class of FDD nodes.  Instances are created via :class:`FddManager`."""

    __slots__ = ("uid", "manager")

    uid: int
    manager: "FddManager"

    def is_leaf(self) -> bool:
        return isinstance(self, Leaf)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class Leaf(FddNode):
    """A leaf holding a distribution over actions."""

    __slots__ = ("dist",)

    def __init__(self, manager: "FddManager", uid: int, dist: Dist[ActionOrDrop]):
        self.manager = manager
        self.uid = uid
        self.dist = dist

    def __repr__(self) -> str:
        return f"Leaf#{self.uid}({self.dist})"


class Branch(FddNode):
    """An interior node testing ``field = value``."""

    __slots__ = ("field", "value", "hi", "lo")

    def __init__(
        self,
        manager: "FddManager",
        uid: int,
        field: str,
        value: int,
        hi: FddNode,
        lo: FddNode,
    ):
        self.manager = manager
        self.uid = uid
        self.field = field
        self.value = value
        self.hi = hi
        self.lo = lo

    @property
    def test(self) -> tuple[str, int]:
        return (self.field, self.value)

    def __repr__(self) -> str:
        return f"Branch#{self.uid}({self.field}={self.value})"


class FddManager:
    """Interning tables, test ordering, and operation caches for FDDs.

    Parameters
    ----------
    field_order:
        Optional explicit ordering of field names (earlier fields are
        tested closer to the root).  Fields not listed are appended in
        first-use order.  All FDDs participating in one analysis must be
        built by the same manager.
    """

    def __init__(self, field_order: Sequence[str] = ()):  # noqa: D401
        self._field_rank: dict[str, int] = {}
        for field in field_order:
            self._field_rank.setdefault(field, len(self._field_rank))
        self._leaves: dict[frozenset, Leaf] = {}
        self._branches: dict[tuple, Branch] = {}
        self._next_uid = 0
        self.cache: dict[tuple, FddNode] = {}
        # Per-operation memo tables (restrict/ite/sequence/...), keyed by
        # plain tuples without an operation tag: smaller keys, no repeated
        # hashing of operation-name strings on the hot compile paths.
        self._op_caches: dict[str, dict[tuple, FddNode]] = {}
        # Branch uid -> (field, chain_table): the jump tables of leaf_of.
        self._jump_memo: dict[int, tuple[str, dict[int, FddNode], FddNode]] = {}
        # Branch uid -> the highest field rank tested at or below it
        # (see :func:`~repro.core.fdd.ops.deepest_rank`).
        self.deepest_ranks: dict[int, int] = {}
        # Compile work the memo tables do not see (see :meth:`stats`).
        self.counters = dict.fromkeys(
            ("leaf_actions_composed", "compile_roles", "role_instances"), 0
        )
        # Frequently used constants.
        self.true_leaf = self.leaf(Dist.point(IDENTITY))
        self.false_leaf = self.leaf(Dist.point(DROP))

    # -- field ordering --------------------------------------------------------
    def field_rank(self, field: str) -> int:
        """Rank of a field in the test order (registering it if new)."""
        if field not in self._field_rank:
            self._field_rank[field] = len(self._field_rank)
        return self._field_rank[field]

    def register_fields(self, fields: Iterable[str]) -> None:
        """Register fields in a deterministic order before building FDDs."""
        for field in fields:
            self.field_rank(field)

    def test_key(self, field: str, value: int) -> tuple[int, int]:
        """Sort key of the test ``field = value``."""
        return (self.field_rank(field), value)

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._field_rank)

    # -- interning constructors --------------------------------------------------
    def _fresh_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def leaf(self, dist: Dist[ActionOrDrop]) -> Leaf:
        """Intern a leaf with the given action distribution.

        The key is the *set* of ``(action, mass)`` pairs — a distribution
        has no order to normalise — with each mass as its exact integer
        ratio: ``Fraction(1, 2)``, ``0.5`` and ``Fraction(2, 4)`` all key
        to ``(1, 2)``, because :class:`Dist` treats equal masses as equal
        whatever their arithmetic type and mixed exact/float pipelines
        must not duplicate diagrams.  Only equal numbers collide.
        """
        key = frozenset(
            [(action, mass.as_integer_ratio()) for action, mass in dist.items()]
        )
        node = self._leaves.get(key)
        if node is None:
            node = Leaf(self, self._fresh_uid(), dist)
            self._leaves[key] = node
        return node

    def interned(self, key: frozenset) -> Leaf | None:
        """The leaf interned under ``key`` — its ``(action, mass ratio)``
        pairs, in whatever order it lists them — or ``None``."""
        return self._leaves.get(key)

    def branch(self, field: str, value: int, hi: FddNode, lo: FddNode) -> FddNode:
        """Intern a branch, collapsing it when both children coincide."""
        if hi is lo:
            return hi
        key = (field, value, hi.uid, lo.uid)
        node = self._branches.get(key)
        if node is None:
            node = Branch(self, self._fresh_uid(), field, value, hi, lo)
            self._branches[key] = node
        return node

    # -- primitive FDDs ----------------------------------------------------------
    def from_test(self, field: str, value: int) -> FddNode:
        """FDD of the predicate ``field = value``."""
        self.field_rank(field)
        return self.branch(field, value, self.true_leaf, self.false_leaf)

    def from_assign(self, field: str, value: int) -> FddNode:
        """FDD of the assignment ``field <- value``."""
        self.field_rank(field)
        return self.leaf(Dist.point(Action({field: value})))

    def from_action_dist(self, dist: Dist[ActionOrDrop]) -> Leaf:
        """FDD with a single leaf carrying an arbitrary action distribution."""
        for action in dist.support():
            if isinstance(action, Action):
                for f in action.fields:
                    self.field_rank(f)
        return self.leaf(dist)

    # -- statistics ---------------------------------------------------------------
    def node_count(self) -> int:
        """Total number of distinct nodes interned so far."""
        return len(self._leaves) + len(self._branches)

    def stats(self) -> dict[str, object]:
        """Nodes interned, each operation's memo-table size, the field
        order (root-most first) — the one thing two managers must share
        for their diagrams to be the same diagrams — and the compile's
        exact work counts: ``leaf_actions_composed`` (actions of the
        leaves that :func:`~repro.core.fdd.ops.sequence` composed onto a
        diagram: what a product of samplers costs, which no memo table
        counts), ``compile_roles`` (role templates compiled, one per switch
        role) and ``role_instances`` (per-switch diagrams built by renaming
        a template: the interpreter's switches as it visits them, and a
        whole program's join when its node is asked for; a query plan kept
        per role renames none), see
        :meth:`~repro.core.compiler.Compiler.runs_per_value`."""
        return {
            "nodes": self.node_count(),
            # A snapshot first: a serving thread may add a table meanwhile.
            "memo": {name: len(cache) for name, cache in list(self._op_caches.items())},
            "fields": self.fields,
            **self.counters,
        }

    def op_cache(self, name: str) -> dict[tuple, FddNode]:
        """The dedicated memo table of one FDD operation (created on demand)."""
        cache = self._op_caches.get(name)
        if cache is None:
            cache = self._op_caches[name] = {}
        return cache

    def clear_caches(self) -> None:
        """Drop memoisation caches (interning tables are kept)."""
        self.cache.clear()
        for cache in self._op_caches.values():
            cache.clear()


# ---------------------------------------------------------------------------
# traversal / evaluation utilities (read-only, manager-independent)
# ---------------------------------------------------------------------------

def evaluate(node: FddNode, packet: Packet) -> Dist[ActionOrDrop]:
    """Evaluate an FDD on a concrete packet, returning its action distribution."""
    return leaf_of(node, dict(packet.items()).get).dist


def output_distribution(node: FddNode, packet: Packet) -> Dist[Packet | _DropType]:
    """The distribution over output packets (or drop) for a concrete input."""
    from repro.core.fdd.actions import apply_action

    return evaluate(node, packet).map(lambda action: apply_action(action, packet))


def chain_table(node: Branch) -> tuple[dict[int, FddNode], FddNode]:
    """The run of ``lo``-linked tests on ``node``'s field, as a jump table.

    Ordered diagrams test one field as a linear chain of value branches
    (one per switch, say).  Returns ``value -> hi`` over that chain and
    the first node past it, which every other value falls through to.
    """
    field = node.field
    table: dict[int, FddNode] = {}
    rest: FddNode = node
    while type(rest) is Branch and rest.field == field:
        table.setdefault(rest.value, rest.hi)
        rest = rest.lo
    return table, rest


def leaf_of(node: FddNode, lookup: Callable[[str], int | None]) -> Leaf:
    """The leaf of ``node`` selected by the packet (or class) behind ``lookup``.

    ``lookup(field)`` is the value the input holds in ``field``, or
    ``None`` when it holds none the diagram could test — a packet without
    the field, a class's wildcard — which fails every test, as in the
    interpreter and the reference semantics.

    This is the one descent every evaluation shares.  It does not compare
    the input against each test of a same-field chain in turn: a chain is
    entered through its :func:`chain_table`, built on first use and kept
    on the manager (diagrams are immutable, uids unique per manager), so a
    descent costs one ``lookup`` and one dict probe per chain — O(fields)
    on a reduced diagram, however many switches a chain lists.  A value
    the table lacks (``None`` included) takes the chain's fall-through,
    exactly like failing each test; on an unreduced diagram whose ``hi``
    child tests the field again, that child is simply the next chain.
    """
    jumps = node.manager._jump_memo
    current = node
    while type(current) is Branch:
        entry = jumps.get(current.uid)
        if entry is None:
            entry = jumps[current.uid] = (current.field, *chain_table(current))
        field, table, default = entry
        current = table.get(lookup(field), default)
    return current


def iter_nodes(node: FddNode) -> Iterator[FddNode]:
    """Iterate over the distinct nodes reachable from ``node`` (pre-order)."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.uid in seen:
            continue
        seen.add(current.uid)
        yield current
        if isinstance(current, Branch):
            stack.append(current.lo)
            stack.append(current.hi)


def node_size(node: FddNode) -> int:
    """Number of distinct nodes in the diagram rooted at ``node``."""
    return sum(1 for _ in iter_nodes(node))


def leaves(node: FddNode) -> Iterator[Leaf]:
    """Iterate over the distinct leaves of the diagram."""
    for current in iter_nodes(node):
        if isinstance(current, Leaf):
            yield current


# ---------------------------------------------------------------------------
# manager-independent serialization (multiprocessing)
# ---------------------------------------------------------------------------

def node_to_spec(node: FddNode) -> tuple:
    """Serialize an FDD into a manager-independent, picklable spec.

    The spec lists the distinct nodes of the diagram children-first:
    leaves as ``("leaf", ((mods | None, prob), ...))`` (``None`` encodes
    the drop action) and branches as ``("branch", field, value, hi_index,
    lo_index)`` referring to earlier positions.  The root is the last
    entry.  Rebuild with :func:`node_from_spec`; probabilities keep their
    exact type (:class:`~fractions.Fraction` or ``float``).
    """
    order: list[FddNode] = []
    done: set[int] = set()
    stack: list[tuple[FddNode, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if current.uid in done:
            continue
        if expanded or isinstance(current, Leaf):
            done.add(current.uid)
            order.append(current)
            continue
        assert isinstance(current, Branch)
        stack.append((current, True))
        stack.append((current.hi, False))
        stack.append((current.lo, False))
    index = {n.uid: i for i, n in enumerate(order)}
    entries: list[tuple] = []
    for current in order:
        if isinstance(current, Leaf):
            entries.append((
                "leaf",
                tuple(
                    (None if isinstance(action, _DropType) else action.mods, prob)
                    for action, prob in current.dist.items()
                ),
            ))
        else:
            assert isinstance(current, Branch)
            entries.append((
                "branch",
                current.field,
                current.value,
                index[current.hi.uid],
                index[current.lo.uid],
            ))
    return tuple(entries)


def node_from_spec(manager: FddManager, spec: tuple) -> FddNode:
    """Rebuild an FDD from a :func:`node_to_spec` spec into ``manager``.

    The caller is responsible for registering the originating manager's
    field order first (see :meth:`FddManager.register_fields`) when the
    rebuilt diagram will be composed with others.
    """
    from repro.core.fdd.actions import Action
    from repro.core.packet import DROP

    nodes: list[FddNode] = []
    for entry in spec:
        if entry[0] == "leaf":
            weights = {
                (DROP if mods is None else Action(mods)): prob
                for mods, prob in entry[1]
            }
            nodes.append(manager.from_action_dist(Dist(weights, check=False)))
        else:
            _, field, value, hi, lo = entry
            manager.field_rank(field)
            nodes.append(manager.branch(field, value, nodes[hi], nodes[lo]))
    if not nodes:
        raise ValueError("empty FDD spec")
    return nodes[-1]


def mentioned_values(node: FddNode) -> dict[str, set[int]]:
    """Per-field values mentioned in tests or modifications.

    This is the information used by dynamic domain reduction (§5.1) to
    pick the symbolic packets when converting an FDD to a sparse matrix.
    """
    values: dict[str, set[int]] = {}
    for current in iter_nodes(node):
        if isinstance(current, Branch):
            values.setdefault(current.field, set()).add(current.value)
        else:
            assert isinstance(current, Leaf)
            for action in current.dist.support():
                if isinstance(action, Action):
                    for field, value in action.mods:
                        values.setdefault(field, set()).add(value)
    return values
