"""Abstract syntax for ProbNetKAT (guarded and history-free fragment).

The grammar follows Figure 2 of the paper:

* predicates ``t, u`` — ``drop``, ``skip``, ``f = n``, disjunction,
  conjunction, negation;
* programs ``p, q`` — predicates (filters), assignments ``f <- n``,
  union ``p & q``, sequencing ``p ; q``, probabilistic choice
  ``p (+)_r q``, and iteration ``p*``;
* the guarded constructs ``if``/``while``/``case`` are first-class AST
  nodes (the backends only accept guarded programs; the general union and
  star are retained so the reference semantics can exercise them).

All nodes are immutable and hashable.  Programs are built either with the
node constructors or with the small DSL helpers (:func:`test`,
:func:`assign`, :func:`seq`, :func:`choice`, :func:`ite`,
:func:`while_do`, ...), and can be combined with operators:

``p >> q``  sequencing, ``p | q``  union, ``~t`` negation (predicates),
``t & u`` conjunction (predicates).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def as_prob(value: float | int | Fraction) -> Fraction:
    """Convert a user-supplied probability to an exact :class:`Fraction`.

    Floats are converted via their decimal string form so that ``0.25``
    becomes ``1/4`` rather than a 53-bit binary approximation.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, Fraction):
        prob = value
    elif isinstance(value, int):
        prob = Fraction(value)
    elif isinstance(value, float):
        prob = Fraction(str(value))
    else:
        raise TypeError(f"unsupported probability type {type(value)!r}")
    if prob < 0 or prob > 1:
        raise ValueError(f"probability {prob} outside [0, 1]")
    return prob


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------

class Policy:
    """Base class of all ProbNetKAT programs."""

    # Not a dataclass field: the memo of :meth:`shape`, absent until asked for.
    __slots__ = ("_shape",)

    # operators -------------------------------------------------------------
    def __rshift__(self, other: "Policy") -> "Policy":
        """``p >> q`` is sequential composition ``p ; q``."""
        return seq(self, other)

    def __or__(self, other: "Policy") -> "Policy":
        """``p | q`` is parallel composition (union) ``p & q``."""
        return union(self, other)

    def choice(self, prob: float | Fraction, other: "Policy") -> "Policy":
        """``p.choice(r, q)`` is ``p ⊕_r q``."""
        return choice((self, prob), (other, 1 - as_prob(prob)))

    def star(self) -> "Policy":
        """Kleene iteration ``p*`` (not available to the guarded backends)."""
        return Star(self)

    # structural helpers -----------------------------------------------------
    def children(self) -> tuple["Policy", ...]:
        """Immediate sub-policies (predicates included)."""
        return ()

    def walk(self) -> Iterator["Policy"]:
        """Pre-order traversal of the syntax tree (one generator, explicit stack)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def _scan(self) -> tuple[int, dict[str, set[int]], bool]:
        """``(size, field values, guarded)`` from one pre-order pass.

        An explicit stack dispatching on ``type(node)``: the generator of
        :meth:`walk` and an ``isinstance`` per node cost more than the
        visit itself, and a FatTree k=24 link program has 68 000 nodes.
        Children are pushed in reverse so they pop in :meth:`walk`'s
        order, which keeps the field names in order of first mention.
        """
        count = 0
        values: dict[str, set[int]] = {}
        guarded = True
        stack: list[Policy] = [self]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            count += 1
            kind = type(node)
            if kind is Test or kind is Assign:
                seen = values.get(node.field)
                if seen is None:
                    values[node.field] = {node.value}
                else:
                    seen.add(node.value)
            elif kind is Seq:
                stack.extend(node.parts[::-1])
            elif kind is Case:
                push(node.default)
                for guard, branch in node.branches[::-1]:
                    push(branch)
                    push(guard)
            elif kind is Choice:
                for branch, _ in node.branches[::-1]:
                    push(branch)
            elif kind is IfThenElse:
                push(node.otherwise)
                push(node.then)
                push(node.guard)
            elif kind is And or kind is Or:
                push(node.right)
                push(node.left)
            elif kind is TrueP or kind is FalseP:
                pass
            else:
                if isinstance(node, (Test, Assign)):
                    values.setdefault(node.field, set()).add(node.value)
                elif isinstance(node, Star) or (
                    isinstance(node, Union)
                    and not all(isinstance(part, Predicate) for part in node.parts)
                ):
                    guarded = False
                stack.extend(node.children()[::-1])
        return count, values, guarded

    def size(self) -> int:
        """Number of AST nodes."""
        return self._scan()[0]

    def fields(self) -> frozenset[str]:
        """All field names mentioned by tests or assignments."""
        return frozenset(self._scan()[1])

    def field_values(self) -> dict[str, frozenset[int]]:
        """Per-field sets of values mentioned by tests or assignments.

        This is the information used by *dynamic domain reduction* when
        converting FDDs to sparse matrices (§5.1).  Keys come in order of
        first mention in a pre-order walk.
        """
        return {name: frozenset(vals) for name, vals in self._scan()[1].items()}

    def shape(self) -> tuple[bool, tuple[str, ...]]:
        """``(loop_free, assigned)``, decided once per node and kept on it.

        ``loop_free``: no ``while``, star or union anywhere below — what
        one diagram walk can stand for.  ``assigned``: the fields some
        execution may assign, in program order.  Both are what the
        interpreter, the compiled bodies and the compiler's per-switch
        runs ask of every part of a sequence, each time they meet it; a
        node is immutable, so the one walk that answers both is made
        once, without descending into predicates.
        """
        try:
            return self._shape
        except AttributeError:
            pass
        loop_free = True
        assigned: dict[str, None] = {}
        stack: list[Policy] = [self]
        pop, push = stack.pop, stack.append
        # Dispatching on ``type(node)`` for the common kinds, as ``_scan``
        # does: a FatTree link program is tens of thousands of nodes.
        while stack:
            node = pop()
            kind = type(node)
            if kind is Assign:
                assigned[node.field] = None
            elif kind is Seq:
                stack.extend(node.parts[::-1])
            elif kind is Case:
                push(node.default)
                for _guard, branch in node.branches[::-1]:
                    push(branch)
            elif kind is Choice:
                for branch, _prob in node.branches[::-1]:
                    push(branch)
            elif kind is IfThenElse:
                push(node.otherwise)
                push(node.then)
            elif not isinstance(node, Predicate):
                if isinstance(node, (WhileDo, Star, Union)):
                    loop_free = False
                stack.extend(reversed(node.children()))
        shape = (loop_free, tuple(assigned))
        object.__setattr__(self, "_shape", shape)
        return shape

    def is_predicate(self) -> bool:
        return isinstance(self, Predicate)

    def __reduce__(self):
        """Support pickling (multiprocessing) despite frozen slotted dataclasses."""
        import dataclasses

        return (type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self)))

    def is_guarded(self) -> bool:
        """True when the program avoids bare union and iteration.

        The guarded fragment (§3) replaces union/iteration by
        conditionals and while loops; predicates may still use
        disjunction.  ``Case`` branching counts as guarded.
        """
        return self._scan()[2]

    def __repr__(self) -> str:
        from repro.core.pretty import pretty
        return pretty(self)


class Predicate(Policy):
    """Base class of predicates; predicates are also policies (filters)."""

    __slots__ = ()

    def __and__(self, other: "Predicate") -> "Predicate":
        return conj(self, other)

    def __or__(self, other: "Policy") -> "Policy":
        if isinstance(other, Predicate):
            return disj(self, other)
        return union(self, other)

    def __invert__(self) -> "Predicate":
        return neg(self)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class TrueP(Predicate):
    """The always-true predicate ``skip``."""
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class FalseP(Predicate):
    """The always-false predicate ``drop``."""
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Test(Predicate):
    """Field test ``f = n``."""
    __slots__ = ("field", "value")
    field: str
    value: int


@dataclass(frozen=True, repr=False)
class And(Predicate):
    """Predicate conjunction ``t ; u``."""
    __slots__ = ("left", "right")
    left: Predicate
    right: Predicate

    def children(self) -> tuple[Policy, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Or(Predicate):
    """Predicate disjunction ``t & u``."""
    __slots__ = ("left", "right")
    left: Predicate
    right: Predicate

    def children(self) -> tuple[Policy, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Not(Predicate):
    """Predicate negation ``¬t``."""
    __slots__ = ("pred",)
    pred: Predicate

    def children(self) -> tuple[Policy, ...]:
        return (self.pred,)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Assign(Policy):
    """Field assignment ``f <- n``."""
    __slots__ = ("field", "value")
    field: str
    value: int


@dataclass(frozen=True, repr=False)
class Seq(Policy):
    """Sequential composition ``p ; q`` (n-ary, flattened)."""
    __slots__ = ("parts",)
    parts: tuple[Policy, ...]

    def children(self) -> tuple[Policy, ...]:
        return self.parts


@dataclass(frozen=True, repr=False)
class Union(Policy):
    """Parallel composition ``p & q`` (n-ary, flattened).

    Only predicate unions are accepted by the guarded backends.
    """
    __slots__ = ("parts",)
    parts: tuple[Policy, ...]

    def children(self) -> tuple[Policy, ...]:
        return self.parts


@dataclass(frozen=True, repr=False)
class Choice(Policy):
    """Probabilistic choice ``p1 @ r1 ⊕ ... ⊕ pk @ rk`` with ``Σ ri = 1``."""
    __slots__ = ("branches",)
    branches: tuple[tuple[Policy, Fraction], ...]

    def children(self) -> tuple[Policy, ...]:
        return tuple(policy for policy, _ in self.branches)


@dataclass(frozen=True, repr=False)
class Star(Policy):
    """Kleene iteration ``p*`` (general, non-guarded)."""
    __slots__ = ("body",)
    body: Policy

    def children(self) -> tuple[Policy, ...]:
        return (self.body,)


@dataclass(frozen=True, repr=False)
class IfThenElse(Policy):
    """Guarded conditional ``if t then p else q``."""
    __slots__ = ("guard", "then", "otherwise")
    guard: Predicate
    then: Policy
    otherwise: Policy

    def children(self) -> tuple[Policy, ...]:
        return (self.guard, self.then, self.otherwise)


@dataclass(frozen=True, repr=False)
class WhileDo(Policy):
    """Guarded loop ``while t do p``."""
    __slots__ = ("guard", "body")
    guard: Predicate
    body: Policy

    def children(self) -> tuple[Policy, ...]:
        return (self.guard, self.body)


@dataclass(frozen=True, repr=False)
class Case(Policy):
    """N-ary disjoint branching (§6, added for parallel compilation).

    ``case t1 then p1 else case t2 then p2 ... else default``.  Semantically
    identical to a cascade of conditionals, but a ``case`` on one field
    compiles branch by branch (per switch) instead of as one product.
    """
    __slots__ = ("branches", "default")
    branches: tuple[tuple[Predicate, Policy], ...]
    default: Policy

    def children(self) -> tuple[Policy, ...]:
        parts: list[Policy] = []
        for guard, policy in self.branches:
            parts.append(guard)
            parts.append(policy)
        parts.append(self.default)
        return tuple(parts)


# canonical constants -------------------------------------------------------

SKIP = TrueP()
"""The identity program / always-true predicate."""

DROP_POLICY = FalseP()
"""The drop program / always-false predicate."""


# ---------------------------------------------------------------------------
# smart constructors (the DSL)
# ---------------------------------------------------------------------------

def skip() -> Predicate:
    """The identity policy ``skip``."""
    return SKIP


def drop() -> Predicate:
    """The drop policy ``drop``."""
    return DROP_POLICY


def _field_value(field: str, value: int) -> int:
    """``value`` as an ``int``, or a ``TypeError`` naming the field.

    :func:`operator.index` takes ``int`` and NumPy integers; ``bool``,
    ``float`` and ``str`` would silently become a different program.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"field {field!r} takes an integer value, got {value!r}")


def test(field: str, value: int) -> Predicate:
    """Field test ``field = value``."""
    return Test(field, value if type(value) is int else _field_value(field, value))


def assign(field: str, value: int) -> Policy:
    """Field modification ``field <- value``."""
    return Assign(field, value if type(value) is int else _field_value(field, value))


def _balanced(
    node: type[And] | type[Or], unit: Predicate, preds: Sequence[Predicate]
) -> Predicate:
    """Combine ``preds`` pairwise, left to right; ``unit`` operands drop out.

    The tree is ⌈log₂ n⌉ deep, not n: every recursive consumer (compiler,
    interpreter, pretty-printer, ``walk``) handles a predicate with
    thousands of terms — one per host port of a large fat-tree — within
    the default recursion limit, and folds it pairwise rather than one
    term at a time against an ever-growing accumulator.
    """
    kind = "conjunction" if node is And else "disjunction"
    unit_type = type(unit)
    level: list[Predicate] = []
    for pred in preds:
        if not isinstance(pred, Predicate):
            raise TypeError(f"{kind} requires predicates, got {pred!r}")
        if type(pred) is not unit_type:  # pred != unit: nodes of one class are equal
            level.append(pred)
    while len(level) > 1:
        paired = [node(left, right) for left, right in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0] if level else unit


def conj(*preds: Predicate) -> Predicate:
    """Predicate conjunction (identity: ``skip``), as a balanced tree."""
    return _balanced(And, SKIP, preds)


def disj(*preds: Predicate) -> Predicate:
    """Predicate disjunction (identity: ``drop``), as a balanced tree."""
    return _balanced(Or, DROP_POLICY, preds)


def neg(pred: Predicate) -> Predicate:
    """Predicate negation with double-negation elimination."""
    if not isinstance(pred, Predicate):
        raise TypeError(f"negation requires a predicate, got {pred!r}")
    if isinstance(pred, Not):
        return pred.pred
    if isinstance(pred, TrueP):
        return DROP_POLICY
    if isinstance(pred, FalseP):
        return SKIP
    return Not(pred)


def seq(*policies: Policy) -> Policy:
    """Sequential composition, flattening nested sequences.

    ``skip`` operands are dropped; a ``drop`` operand short-circuits the
    whole sequence to ``drop`` only when it is in policy position (this is
    sound because ``drop ; p ≡ drop``).
    """
    parts: list[Policy] = []
    for policy in policies:
        kind = type(policy)
        if kind is Seq:
            parts.extend(policy.parts)
        elif kind is TrueP:
            continue
        elif kind is FalseP:
            return DROP_POLICY
        elif isinstance(policy, Policy):
            parts.append(policy)
        else:
            raise TypeError(f"seq requires policies, got {policy!r}")
    if not parts:
        return SKIP
    if len(parts) == 1:
        return parts[0]
    return Seq(tuple(parts))


def union(*policies: Policy) -> Policy:
    """Parallel composition, flattening nested unions."""
    parts: list[Policy] = []
    for policy in policies:
        if not isinstance(policy, Policy):
            raise TypeError(f"union requires policies, got {policy!r}")
        if isinstance(policy, FalseP):
            continue
        if isinstance(policy, Union):
            parts.extend(policy.parts)
        else:
            parts.append(policy)
    if not parts:
        return DROP_POLICY
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(part, Predicate) for part in parts):
        return disj(*parts)  # type: ignore[arg-type]
    return Union(tuple(parts))


def choice(*branches: tuple[Policy, float | Fraction]) -> Policy:
    """Probabilistic choice from ``(policy, probability)`` pairs.

    The probabilities must sum to 1.  Branches with probability 0 are
    removed and identical branches are merged.  The sum is checked in
    integers over the least common denominator: a model has thousands
    of choices, and a ``Fraction`` sum normalises at every step.
    """
    weighted: dict[Policy, Fraction] = {}
    for policy, prob in branches:
        if not isinstance(policy, Policy):
            raise TypeError(f"choice requires policies, got {policy!r}")
        if type(prob) is Fraction and 0 <= prob.numerator <= prob.denominator:
            p = prob
        else:
            p = as_prob(prob)
        if not p:
            continue
        if policy in weighted:
            weighted[policy] += p
        else:
            weighted[policy] = p
    common = lcm(*[p.denominator for p in weighted.values()])
    total = sum([p.numerator * (common // p.denominator) for p in weighted.values()])
    if total != common:
        raise ValueError(f"choice probabilities sum to {Fraction(total, common)}, expected 1")
    if len(weighted) == 1:
        return next(iter(weighted))
    return Choice(tuple(weighted.items()))


def uniform(*policies: Policy) -> Policy:
    """Uniform probabilistic choice ``p1 ⊕ ... ⊕ pn``.

    Distinct branches make the :class:`Choice` directly: n shares of
    ``1/n`` sum to 1 by construction.  Duplicates go through
    :func:`choice`, which merges them.
    """
    policies = tuple(policies)
    if not policies:
        raise ValueError("uniform choice over no policies")
    share = Fraction(1, len(policies))
    typed = all(isinstance(policy, Policy) for policy in policies)
    if not typed or len(set(policies)) < len(policies):
        return choice(*[(policy, share) for policy in policies])
    if len(policies) == 1:
        return policies[0]
    return Choice(tuple((policy, share) for policy in policies))


def ite(guard: Predicate, then: Policy, otherwise: Policy = SKIP) -> Policy:
    """Guarded conditional ``if guard then then else otherwise``."""
    if not isinstance(guard, Predicate):
        raise TypeError("ite guard must be a predicate")
    if isinstance(guard, TrueP):
        return then
    if isinstance(guard, FalseP):
        return otherwise
    return IfThenElse(guard, then, otherwise)


def while_do(guard: Predicate, body: Policy) -> Policy:
    """Guarded loop ``while guard do body``."""
    if not isinstance(guard, Predicate):
        raise TypeError("while guard must be a predicate")
    if isinstance(guard, FalseP):
        return SKIP
    return WhileDo(guard, body)


def star(body: Policy) -> Policy:
    """Kleene iteration ``body*`` (general fragment only)."""
    return Star(body)


def case(branches: Sequence[tuple[Predicate, Policy]], default: Policy = DROP_POLICY) -> Policy:
    """N-ary disjoint branching over ``(guard, policy)`` pairs."""
    cleaned: list[tuple[Predicate, Policy]] = []
    for guard, policy in branches:
        if not isinstance(guard, Predicate):
            raise TypeError("case guards must be predicates")
        if type(guard) is FalseP:
            continue
        cleaned.append((guard, policy))
    if not cleaned:
        return default
    return Case(tuple(cleaned), default)


def case_to_ite(policy: Case) -> Policy:
    """Expand a :class:`Case` node into a cascade of conditionals."""
    result: Policy = policy.default
    for guard, branch in reversed(policy.branches):
        result = ite(guard, branch, result)
    return result


def test_all(assignments: Mapping[str, int] | Iterable[tuple[str, int]]) -> Predicate:
    """Conjunction of tests, e.g. ``test_all({"sw": 1, "pt": 2})``."""
    items = assignments.items() if isinstance(assignments, Mapping) else assignments
    return conj(*[test(field, value) for field, value in items])


def assign_all(assignments: Mapping[str, int] | Iterable[tuple[str, int]]) -> Policy:
    """Sequence of assignments, e.g. ``assign_all({"sw": 2, "pt": 1})``."""
    items = assignments.items() if isinstance(assignments, Mapping) else assignments
    return seq(*[assign(field, value) for field, value in items])
