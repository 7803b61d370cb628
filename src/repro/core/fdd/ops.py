"""Algorithms on probabilistic FDDs.

All operations preserve the canonical form (ordered tests, no redundant
tests, interned nodes) by always splitting on the *smallest* test among
the operands' roots, in the style of classic BDD ``apply`` algorithms.

Every operation is implemented with an explicit worklist instead of
recursion: the diagrams of network-scale programs contain chains with
one branch per switch (thousands of values on a single field), so
recursive descent would hit the Python recursion limit long before the
diagrams become expensive to process.  Memoisation lives in dedicated
per-operation tables on the :class:`~repro.core.fdd.node.FddManager`
(see :meth:`~repro.core.fdd.node.FddManager.op_cache`), keyed by plain
tuples of node uids — numeric weights are keyed by their exact integer
ratio, so :class:`~fractions.Fraction` and ``float`` representations of
the same number share cache entries.

The operations provided here are exactly those needed to compile the
guarded fragment of ProbNetKAT:

* :func:`restrict_eq` / :func:`restrict_ne` / :func:`cofactors` — partial
  evaluation given knowledge about one field;
* :func:`convex` — convex combination (probabilistic choice);
* :func:`ite` — conditional on a 0/1-valued predicate FDD;
* :func:`negate`, :func:`conjoin`, :func:`disjoin` — predicate algebra;
* :func:`sequence` — sequential composition (the Kleisli composition of
  the underlying packet kernels);
* :func:`map_leaves` — leaf-wise transformation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.distributions import Dist
from repro.core.fdd.actions import Action, ActionOrDrop
from repro.core.fdd.node import Branch, FddManager, FddNode, Leaf, chain_table
from repro.core.packet import _DropType


# ---------------------------------------------------------------------------
# restriction (partial evaluation)
# ---------------------------------------------------------------------------

def restrict_eq(node: FddNode, field: str, value: int) -> FddNode:
    """Partially evaluate ``node`` under the knowledge ``field == value``.

    Every test on ``field`` is resolved (to true when it tests ``value``,
    to false otherwise).

    Invariants: diagrams are ordered, so a leaf, or a test on a
    later-ranked field, is its own restriction and gets no memo entry.
    A run of ``lo``-linked tests on ``field`` (one per switch, in a
    network model) is walked in a plain loop to the ``hi`` child of the
    test on ``value`` or to the first node past the run, and only the
    node the walk started from is memoised.  What the walk arrives at is
    restricted in turn: a hand-built ``hi`` child may test ``field`` again.
    """
    if type(node) is Leaf:
        return node
    manager = node.manager
    cache = manager.op_cache("restrict_eq")
    field_rank = manager.field_rank
    rank = field_rank(field)

    def settled(current: FddNode) -> FddNode | None:
        """The restriction of ``current`` if no work is needed to know it."""
        if type(current) is Leaf or (
            current.field != field and field_rank(current.field) > rank
        ):
            return current
        return cache.get((current.uid, field, value))

    result = settled(node)
    if result is not None:
        return result
    stack = [node]
    while stack:
        current = stack[-1]
        key = (current.uid, field, value)
        if key in cache:
            stack.pop()
            continue
        assert isinstance(current, Branch)
        if current.field == field:
            child: FddNode = current
            while type(child) is Branch and child.field == field:
                if child.value == value:
                    child = child.hi
                    break
                child = child.lo
            result = settled(child)
            if result is None:
                stack.append(child)
                continue
            cache[key] = result
            stack.pop()
        else:
            hi = settled(current.hi)
            lo = settled(current.lo)
            if hi is None or lo is None:
                if hi is None:
                    stack.append(current.hi)
                if lo is None:
                    stack.append(current.lo)
                continue
            cache[key] = manager.branch(current.field, current.value, hi, lo)
            stack.pop()
    return cache[(node.uid, field, value)]


def cofactors(node: FddNode, field: str, values: Iterable[int]) -> dict[int, FddNode]:
    """``restrict_eq(node, field, v)`` for every ``v`` in ``values``, in one pass.

    A diagram that tests ``field`` first does so in one run of
    ``lo``-linked tests, which :func:`restrict_eq` walks once per value
    asked; here it is walked once for all of them.  The results are the
    very nodes :func:`restrict_eq` returns.  When other fields are
    tested above ``field`` there is no single run to walk, and each
    value is restricted on its own.
    """
    manager = node.manager
    if type(node) is Leaf or (
        node.field != field and manager.field_rank(node.field) > manager.field_rank(field)
    ):
        return dict.fromkeys(values, node)
    if node.field != field:
        return {value: restrict_eq(node, field, value) for value in values}
    his, rest = chain_table(node)
    # ``rest`` is past every test on ``field``; a ``hi`` child need not be.
    return {
        value: restrict_eq(his[value], field, value) if value in his else rest
        for value in values
    }


def restrict_ne(node: FddNode, field: str, value: int) -> FddNode:
    """Partially evaluate ``node`` under the knowledge ``field != value``.

    Only tests of exactly ``field = value`` are resolved (to false); other
    tests on the same field remain undetermined.  As in
    :func:`restrict_eq`, a node that cannot test ``field = value`` (a
    leaf, or a test that sorts after it) is its own restriction and gets
    no memo entry.
    """
    if type(node) is Leaf:
        return node
    manager = node.manager
    cache = manager.op_cache("restrict_ne")
    field_rank = manager.field_rank
    rank = field_rank(field)

    def settled(current: FddNode) -> FddNode | None:
        """The restriction of ``current`` if no work is needed to know it."""
        if type(current) is Leaf:
            return current
        if current.field == field:
            # Tests increase strictly along paths.
            if current.value >= value:
                return current.lo if current.value == value else current
        elif field_rank(current.field) > rank:
            return current
        return cache.get((current.uid, field, value))

    result = settled(node)
    if result is not None:
        return result
    stack = [node]
    while stack:
        current = stack[-1]
        key = (current.uid, field, value)
        if key in cache:
            stack.pop()
            continue
        assert isinstance(current, Branch)
        hi = settled(current.hi)
        lo = settled(current.lo)
        if hi is None or lo is None:
            if hi is None:
                stack.append(current.hi)
            if lo is None:
                stack.append(current.lo)
            continue
        cache[key] = manager.branch(current.field, current.value, hi, lo)
        stack.pop()
    return cache[(node.uid, field, value)]


def restrict_action(node: FddNode, action: Action) -> FddNode:
    """Partially evaluate ``node`` after the modifications of ``action``.

    A field ranked after every field the diagram tests is not tested in
    it, so its write restricts nothing and the diagram is not walked.
    """
    result = node
    for field, value in action.mods:
        if type(result) is Leaf:
            break
        if result.manager.field_rank(field) > deepest_rank(result):
            continue
        result = restrict_eq(result, field, value)
    return result


def deepest_rank(node: FddNode) -> int:
    """The highest field rank ``node`` tests anywhere (-1 for a leaf).

    Memoised per node on its manager, so a diagram is walked once for it.
    """
    if type(node) is Leaf:
        return -1
    manager = node.manager
    memo = manager.deepest_ranks
    stack = [node]
    while stack:
        current = stack[-1]
        if current.uid in memo:
            stack.pop()
            continue
        children = [
            child for child in (current.hi, current.lo) if type(child) is not Leaf
        ]
        pending = [child for child in children if child.uid not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[current.uid] = max(
            [manager.field_rank(current.field)] + [memo[child.uid] for child in children]
        )
        stack.pop()
    return memo[node.uid]


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def _min_test(manager: FddManager, nodes: Sequence[FddNode]) -> tuple[str, int] | None:
    """The smallest root test among the given nodes (None when all leaves)."""
    best: tuple[int, int] | None = None
    best_test: tuple[str, int] | None = None
    for node in nodes:
        if isinstance(node, Branch):
            key = manager.test_key(node.field, node.value)
            if best is None or key < best:
                best = key
                best_test = (node.field, node.value)
    return best_test


# ---------------------------------------------------------------------------
# convex combination and conditionals
# ---------------------------------------------------------------------------

def convex(manager: FddManager, parts: Sequence[tuple[FddNode, object]]) -> FddNode:
    """Convex combination ``Σ_i w_i · d_i`` of FDDs (weights sum to 1)."""
    filtered = [(node, weight) for node, weight in parts if weight != 0]
    if not filtered:
        raise ValueError("convex combination of an empty family")
    if len(filtered) == 1 and filtered[0][1] == 1:
        return filtered[0][0]
    # The weights stay put while the diagrams are split: frames are
    # tuples of nodes, and the weights' keys are computed once.
    weights = [weight for _, weight in filtered]
    ratios = tuple(weight.as_integer_ratio() for weight in weights)
    cache = manager.op_cache("convex")

    def key(nodes: tuple[FddNode, ...]) -> tuple:
        return (tuple(node.uid for node in nodes), ratios)

    root = tuple(node for node, _ in filtered)
    stack = [root]
    while stack:
        current = stack[-1]
        current_key = key(current)
        if current_key in cache:
            stack.pop()
            continue
        test = _min_test(manager, current)
        if test is None:
            dists = [(node.dist, weight) for node, weight in zip(current, weights)]  # type: ignore[union-attr]
            cache[current_key] = manager.leaf(Dist.convex(dists, check=False))
            stack.pop()
            continue
        field, value = test
        hi_nodes = tuple(restrict_eq(node, field, value) for node in current)
        lo_nodes = tuple(restrict_ne(node, field, value) for node in current)
        hi = cache.get(key(hi_nodes))
        lo = cache.get(key(lo_nodes))
        if hi is None or lo is None:
            if hi is None:
                stack.append(hi_nodes)
            if lo is None:
                stack.append(lo_nodes)
            continue
        cache[current_key] = manager.branch(field, value, hi, lo)
        stack.pop()
    return cache[key(root)]


def _ite_shortcut(
    manager: FddManager, guard: FddNode, then: FddNode, otherwise: FddNode
) -> FddNode | None:
    """Terminal cases of ``ite`` (None when a split is required)."""
    if guard is manager.true_leaf:
        return then
    if guard is manager.false_leaf:
        return otherwise
    if isinstance(guard, Leaf):
        raise ValueError(f"guard FDD has a non-boolean leaf: {guard!r}")
    if then is otherwise:
        return then
    return None


def _ite_resolve(
    manager: FddManager, cache: dict, guard: FddNode, then: FddNode, otherwise: FddNode
) -> FddNode | None:
    quick = _ite_shortcut(manager, guard, then, otherwise)
    if quick is not None:
        return quick
    return cache.get((guard.uid, then.uid, otherwise.uid))


def ite(guard: FddNode, then: FddNode, otherwise: FddNode) -> FddNode:
    """Conditional: behave as ``then`` where ``guard`` is true, else ``otherwise``.

    ``guard`` must be a *predicate* FDD, i.e. its leaves are the constant
    true leaf (identity action) or the constant false leaf (drop).
    """
    manager = guard.manager
    cache = manager.op_cache("ite")
    quick = _ite_resolve(manager, cache, guard, then, otherwise)
    if quick is not None:
        return quick
    root_key = (guard.uid, then.uid, otherwise.uid)
    stack = [(guard, then, otherwise)]
    while stack:
        g, t, o = stack[-1]
        key = (g.uid, t.uid, o.uid)
        if key in cache:
            stack.pop()
            continue
        # Frames are only pushed when no shortcut applies, so ``g`` is a
        # branch and a smallest test exists.
        test = _min_test(manager, (g, t, o))
        assert test is not None
        field, value = test
        hi_g = restrict_eq(g, field, value)
        hi_t = restrict_eq(t, field, value)
        hi_o = restrict_eq(o, field, value)
        lo_g = restrict_ne(g, field, value)
        lo_t = restrict_ne(t, field, value)
        lo_o = restrict_ne(o, field, value)
        hi = _ite_resolve(manager, cache, hi_g, hi_t, hi_o)
        lo = _ite_resolve(manager, cache, lo_g, lo_t, lo_o)
        if hi is None or lo is None:
            if hi is None:
                stack.append((hi_g, hi_t, hi_o))
            if lo is None:
                stack.append((lo_g, lo_t, lo_o))
            continue
        cache[key] = manager.branch(field, value, hi, lo)
        stack.pop()
    return cache[root_key]


def negate(pred: FddNode) -> FddNode:
    """Negation of a predicate FDD."""
    manager = pred.manager
    return ite(pred, manager.false_leaf, manager.true_leaf)


def conjoin(left: FddNode, right: FddNode) -> FddNode:
    """Conjunction of two predicate FDDs."""
    manager = left.manager
    return ite(left, right, manager.false_leaf)


def disjoin(left: FddNode, right: FddNode) -> FddNode:
    """Disjunction of two predicate FDDs."""
    manager = left.manager
    return ite(left, manager.true_leaf, right)


def is_predicate_fdd(node: FddNode) -> bool:
    """True when every leaf is the constant true or false leaf."""
    manager = node.manager
    from repro.core.fdd.node import leaves

    return all(
        leaf is manager.true_leaf or leaf is manager.false_leaf for leaf in leaves(node)
    )


# ---------------------------------------------------------------------------
# leaf-wise transformation and sequencing
# ---------------------------------------------------------------------------

def map_leaves(
    node: FddNode,
    func: Callable[[Dist[ActionOrDrop]], Dist[ActionOrDrop]],
) -> FddNode:
    """Apply ``func`` to every leaf distribution, rebuilding the diagram."""
    manager = node.manager
    if type(node) is Leaf:
        return manager.leaf(func(node.dist))
    cache: dict[int, FddNode] = {}
    stack = [node]
    while stack:
        current = stack[-1]
        if current.uid in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            cache[current.uid] = manager.leaf(func(current.dist))
            stack.pop()
            continue
        assert isinstance(current, Branch)
        hi = cache.get(current.hi.uid)
        lo = cache.get(current.lo.uid)
        if hi is None or lo is None:
            if hi is None:
                stack.append(current.hi)
            if lo is None:
                stack.append(current.lo)
            continue
        cache[current.uid] = manager.branch(current.field, current.value, hi, lo)
        stack.pop()
    return cache[node.uid]


def sequence(first: FddNode, second: FddNode) -> FddNode:
    """Sequential composition of two FDDs (``first ; second``).

    For every path of ``first`` ending in an action distribution, each
    action ``a`` is composed with ``second`` evaluated on the packet *as
    modified by* ``a``: fields written by ``a`` take their new values,
    while fields left untouched take the values learned from the tests
    along the path through ``first`` (equalities on true-branches,
    disequalities on false-branches).
    """
    return _sequence(first, second, (), ())


_Eqs = tuple[tuple[str, int], ...]
_Neqs = tuple[tuple[str, int], ...]


def _sequence(first: FddNode, second: FddNode, eqs: _Eqs, neqs: _Neqs) -> FddNode:
    manager = first.manager
    cache = manager.op_cache("sequence")
    root_key = (first.uid, second.uid, eqs, neqs)
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    stack = [(first, second, eqs, neqs)]
    while stack:
        fst, snd, eq, ne = stack[-1]
        key = (fst.uid, snd.uid, eq, ne)
        if key in cache:
            stack.pop()
            continue
        if isinstance(fst, Leaf):
            cache[key] = _sequence_leaf(manager, fst.dist, snd, eq, ne)
            stack.pop()
            continue
        assert isinstance(fst, Branch)
        field, value = fst.field, fst.value
        hi_eq = eq + ((field, value),)
        lo_ne = ne + ((field, value),)
        hi = cache.get((fst.hi.uid, snd.uid, hi_eq, ne))
        lo = cache.get((fst.lo.uid, snd.uid, eq, lo_ne))
        if hi is None or lo is None:
            if hi is None:
                stack.append((fst.hi, snd, hi_eq, ne))
            if lo is None:
                stack.append((fst.lo, snd, eq, lo_ne))
            continue
        guard = manager.branch(field, value, manager.true_leaf, manager.false_leaf)
        cache[key] = ite(guard, hi, lo)
        stack.pop()
    return cache[root_key]


def _sequence_leaf(
    manager: FddManager,
    dist: Dist[ActionOrDrop],
    second: FddNode,
    eqs: _Eqs,
    neqs: _Neqs,
) -> FddNode:
    manager.counters["leaf_actions_composed"] += len(dist)
    # (``second`` as the action leaves it, the action still to prepend, weight)
    pending: list[tuple[FddNode, Action | None, object]] = []
    for action, prob in dist.items():
        if isinstance(action, _DropType):
            pending.append((manager.false_leaf, None, prob))
            continue
        # Knowledge about the intermediate packet: the action's writes win;
        # unmodified fields keep what the path through `first` tells us.
        restricted = restrict_action(second, action)
        written = dict(action.mods)
        for field, value in eqs:
            if field not in written:
                restricted = restrict_eq(restricted, field, value)
        for field, value in neqs:
            if field not in written:
                restricted = restrict_ne(restricted, field, value)
        pending.append((restricted, action if action.mods else None, prob))
    if len(pending) > 1 and all(type(node) is Leaf for node, _, _ in pending):
        # Nothing left to split on: the result is one leaf, and its
        # summands need not be interned on the way to it.
        return manager.leaf(Dist.convex(
            [
                (node.dist if action is None else node.dist.map(action.then), prob)
                for node, action, prob in pending
            ],
            check=False,
        ))
    return convex(manager, [
        (
            node
            if action is None
            else map_leaves(node, lambda after, then=action.then: after.map(then)),
            prob,
        )
        for node, action, prob in pending
    ])


def reduce(node: FddNode, eqs: _Eqs = ()) -> FddNode:
    """Normalise an FDD by dropping modifications implied by path tests.

    Along the true-branch of a test ``f = v`` the input packet is known to
    have ``f = v``; a leaf modification ``f := v`` below that branch is
    therefore a no-op and is removed.  This brings semantically equal
    diagrams (e.g. those of ``f=1 ; f<-1`` and ``f=1``) to the same
    canonical node, which is what makes FDD equality a sound *and*
    complete equivalence check for the programs the compiler produces.
    ``eqs`` are the tests known to hold above ``node`` (none at a root).
    """
    manager = node.manager
    cache = manager.op_cache("reduce")
    root_key = (node.uid, eqs)
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    stack: list[tuple[FddNode, _Eqs]] = [(node, eqs)]
    # Per leaf, the (field, value) pairs its actions write.
    writes: dict[int, set[tuple[str, int]]] = {}
    while stack:
        current, eqs = stack[-1]
        key = (current.uid, eqs)
        if key in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            written = writes.get(current.uid)
            if written is None:
                written = writes[current.uid] = {
                    pair for action in current.dist.support() if not isinstance(action, _DropType)
                    for pair in action.mods
                }
            # A leaf that writes none of the known pairs is its own reduction.
            cache[key] = (
                manager.leaf(current.dist.map(_simplifier(dict(eqs))))
                if not written.isdisjoint(eqs)
                else current
            )
            stack.pop()
            continue
        assert isinstance(current, Branch)
        hi_eqs = eqs + ((current.field, current.value),)
        hi = cache.get((current.hi.uid, hi_eqs))
        lo = cache.get((current.lo.uid, eqs))
        if hi is None or lo is None:
            if hi is None:
                stack.append((current.hi, hi_eqs))
            if lo is None:
                stack.append((current.lo, eqs))
            continue
        cache[key] = manager.branch(current.field, current.value, hi, lo)
        stack.pop()
    return cache[root_key]


def _simplifier(known: dict[str, int]):
    """Leaf-map dropping modifications already implied by path tests."""

    def simplify(action: ActionOrDrop) -> ActionOrDrop:
        if isinstance(action, _DropType):
            return action
        kept = {
            field: value
            for field, value in action.mods
            if known.get(field) != value
        }
        return Action(kept)

    return simplify


def sequence_all(nodes: Sequence[FddNode]) -> FddNode:
    """Sequential composition of several FDDs (left to right)."""
    if not nodes:
        raise ValueError("sequence_all of an empty family")
    result = nodes[0]
    for node in nodes[1:]:
        result = sequence(result, node)
    return result
