"""The FDD compiler: ProbNetKAT → probabilistic FDDs (§5.1).

The compiler translates guarded, history-free programs into canonical
probabilistic FDDs over the single-packet state space ``Pk + ∅``:

* atomic programs map directly to FDD primitives;
* composite programs are combined with the FDD algorithms of
  :mod:`repro.core.fdd.ops`;
* ``while`` loops are solved in closed form (§4, Theorem 4.7): the loop
  body FDD is converted to a sparse transition matrix over symbolic
  packet classes (dynamic domain reduction), the absorbing-chain system
  ``A = (I − Q)^{-1} R`` is solved, and the result is converted back into
  an FDD.

Programs outside the guarded fragment (bare union of non-predicates,
Kleene star) are rejected with :class:`GuardedFragmentError`, mirroring
McNetKAT's pragmatic restrictions (§5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.fdd import ops
from repro.core.fdd.actions import Action, ActionOrDrop
from repro.core.fdd.evaluator import dispatch_spine
from repro.core.fdd.flat import Placeholder
from repro.core.fdd.matrix import (
    SymbolicPacket,
    class_transition,
    enumerate_classes,
    matrix_to_fdd,
)
from repro.core.fdd.node import FddManager, FddNode, Leaf, leaf_of, leaves, mentioned_values
from repro.core.markov import solve_absorption_batched, solve_absorption_exact
from repro.core.packet import DROP, _DropType


class GuardedFragmentError(ValueError):
    """Raised when a program falls outside the guarded fragment (§3, §5)."""


class _NoRole(Exception):
    """The branch cannot be abstracted (see :func:`_template`)."""


def _samples(node: FddNode) -> bool:
    """Whether ``node`` is a sampler: one leaf with more than one action."""
    return type(node) is Leaf and len(node.dist) > 1


def _fold(steps: Sequence[FddNode]) -> FddNode:
    """The product of ``steps``, samplers composed from the right.

    Non-samplers multiply left to right, as :func:`~repro.core.fdd.ops.sequence_all`
    does; a sampler is composed onto the product of everything after it,
    so what it samples is tested (and overwritten) before it is
    multiplied with the samplers before it.  With fewer than two
    samplers there is no product of samplers to avoid, and the fold is
    the plain left fold (an F10 switch's one routing sampler costs a
    sixth more memo entries from the right).  Folding *every* leading
    leaf from the right, single-action ones included, makes F10 plans
    twice as expensive: a leaf of one action costs nothing to carry.
    """
    steps = list(steps)
    if sum(map(_samples, steps)) < 2:
        return ops.sequence_all(steps)
    for index in range(len(steps) - 2, -1, -1):
        if _samples(steps[index]):
            steps[index:] = [ops.sequence(steps[index], ops.sequence_all(steps[index + 1:]))]
    return ops.sequence_all(steps)


def _tests_any(parts: Sequence[s.Policy], fields: Sequence[str]) -> bool:
    """Whether any of ``parts`` tests one of ``fields``."""
    return any(
        isinstance(node, s.Test) and node.field in fields
        for part in parts
        for node in part.walk()
    )


def _role(
    head: list[FddNode | s.Policy],
    mover: int,
    located: Sequence[str],
    own: tuple[str, int],
) -> tuple[tuple, list[int]] | None:
    """The role of one dispatch value: ``(key, constants)``, or ``None``.

    ``head`` is the value's run, ``head[mover]`` the branch of the
    ``case`` that re-assigns the dispatch field.  One flat pre-order walk
    of the run's parts makes the key, a tuple of tokens: a diagram part is
    its node, an AST part the kind of each of its nodes with their fields,
    values, probabilities and arities, except that in ``head[mover]`` a
    constant assigned to a ``located`` field is its placeholder index,
    numbered by first occurrence, index zero being the value itself
    (``own``: a self-loop link assigns it).  ``constants[i]`` is what
    index ``i`` stands for.  Two values with equal keys run the same
    program up to that renaming.  No AST is built and no dataclass hashed:
    the key is flat, and its template (:func:`_template`) is built the
    first time the key is seen.

    ``None`` when ``head[mover]`` holds a loop, star or union.  A key
    whose template cannot stand for its role (:func:`_template` returns
    ``None``) is the caller's to remember.
    """
    numbering = {own: 0}
    tokens: list = []
    append = tokens.append
    for at, item in enumerate(head):
        if isinstance(item, FddNode):
            append(item)
            continue
        moving = at == mover
        stack = [item]
        pop, push = stack.pop, stack.append
        # Per node, its kind and what tells it apart from a node of the
        # same kind (an arity, a field and value, probabilities).
        while stack:
            node = pop()
            kind = type(node)
            if kind is s.Assign:
                if moving and node.field in located:
                    constant = (node.field, node.value)
                    index = numbering.get(constant)
                    if index is None:
                        index = numbering[constant] = len(numbering)
                    tokens += (Placeholder, node.field, index)
                else:
                    tokens += (s.Assign, node.field, node.value)
            elif kind is s.Test:
                tokens += (s.Test, node.field, node.value)
            elif kind is s.Seq:
                tokens += (s.Seq, len(node.parts))
                stack.extend(node.parts[::-1])
            elif kind is s.Choice:
                # Integer ratios hash and compare in C; a Fraction does neither.
                tokens += (s.Choice, len(node.branches))
                tokens += [prob.as_integer_ratio() for _, prob in node.branches]
                for branch, _prob in node.branches[::-1]:
                    push(branch)
            elif kind is s.IfThenElse:
                append(s.IfThenElse)
                push(node.otherwise)
                push(node.then)
                push(node.guard)
            elif kind is s.Case:
                tokens += (s.Case, len(node.branches))
                push(node.default)
                for guard, branch in node.branches[::-1]:
                    push(branch)
                    push(guard)
            elif kind is s.And or kind is s.Or:
                append(kind)
                push(node.right)
                push(node.left)
            elif kind is s.Not:
                append(s.Not)
                push(node.pred)
            elif kind is s.TrueP or kind is s.FalseP:
                append(kind)
            elif moving:
                return None
            else:
                append(node)
    return tuple(tokens), [constant for _field, constant in numbering]


def _template(
    branch: s.Policy, located: Sequence[str], own: tuple[str, int]
) -> tuple[s.Policy, tuple[str, ...]] | None:
    """A role's moving branch over placeholders, and the field of each placeholder.

    ``branch`` with the constants it assigns to the ``located`` fields
    replaced by :class:`Placeholder` s, numbered as :func:`_role` numbers
    them.  ``None`` when the branch cannot stand for its role: a test of a
    located field follows an assignment to it on some path (the test
    would meet a placeholder), or the branch holds a loop, star or union.
    The caller has checked that nothing after the ``case`` tests a
    located field.
    """
    numbering: dict[tuple[str, int], Placeholder] = {own: Placeholder(0)}

    def check(pred: s.Predicate, assigned: frozenset[str]) -> None:
        if assigned and _tests_any((pred,), assigned):
            raise _NoRole

    def abstract(node: s.Policy, assigned: frozenset[str]) -> tuple[s.Policy, frozenset[str]]:
        """``node`` over placeholders, and the located fields assigned after it."""
        if isinstance(node, s.Predicate):
            check(node, assigned)
            return node, assigned
        if isinstance(node, s.Assign):
            if node.field not in located:
                return node, assigned
            constant = (node.field, node.value)
            placeholder = numbering.get(constant)
            if placeholder is None:
                placeholder = numbering[constant] = Placeholder(len(numbering))
            if node.field not in assigned:
                assigned = assigned | {node.field}
            return s.Assign(node.field, placeholder), assigned
        if isinstance(node, s.Seq):
            done = []
            for part in node.parts:
                part, assigned = abstract(part, assigned)
                done.append(part)
            return s.Seq(tuple(done)), assigned
        if isinstance(node, s.Choice):
            branches = [(abstract(branch, assigned), prob) for branch, prob in node.branches]
            return (
                s.Choice(tuple((branch, prob) for (branch, _), prob in branches)),
                assigned.union(*(after for (_, after), _ in branches)),
            )
        if isinstance(node, s.IfThenElse):
            check(node.guard, assigned)
            then, after_then = abstract(node.then, assigned)
            otherwise, after_otherwise = abstract(node.otherwise, assigned)
            return s.IfThenElse(node.guard, then, otherwise), after_then | after_otherwise
        if isinstance(node, s.Case):
            branches = []
            after = assigned
            for guard, branch in node.branches:
                check(guard, assigned)
                branch, after_branch = abstract(branch, assigned)
                branches.append((guard, branch))
                after |= after_branch
            default, after_default = abstract(node.default, assigned)
            return s.Case(tuple(branches), default), after | after_default
        raise _NoRole

    try:
        template, _ = abstract(branch, frozenset())
    except _NoRole:
        return None
    return template, tuple(name for name, _constant in numbering)


def _renaming(constants: Sequence[int]):
    """The leaf map that puts ``constants`` back where their placeholders sit."""

    def concrete(action: ActionOrDrop) -> ActionOrDrop:
        if isinstance(action, _DropType) or not any(
            type(value) is Placeholder for _, value in action.mods
        ):
            return action
        return Action(
            (name, constants[value.index] if type(value) is Placeholder else value)
            for name, value in action.mods
        )

    def rename(dist: Dist[ActionOrDrop]) -> Dist[ActionOrDrop]:
        return dist.map(concrete)

    return rename


def _operands(pred: s.Predicate, kind: type[s.And] | type[s.Or]) -> list[s.Predicate]:
    """The operands of a ``kind`` tree, left to right (no recursion: any depth)."""
    operands: list[s.Predicate] = []
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def _cube(pred: s.Predicate) -> list[tuple[str, int]] | None:
    """The tests of a conjunction of equality tests (``true`` has none), else ``None``."""
    tests: list[tuple[str, int]] = []
    for node in _operands(pred, s.And):
        if isinstance(node, s.Test):
            tests.append((node.field, node.value))
        elif not isinstance(node, s.TrueP):
            return None
    return tests


def _cube_union(
    manager: FddManager, cubes: Sequence[Sequence[tuple[str, int]]]
) -> FddNode | None:
    """The predicate diagram of a union of test cubes, in one pass, or ``None``.

    A cube that tests one field for two values is false and drops out, an
    empty cube makes the union true, and the rest must test one and the
    same set of fields (an ingress predicate: ``sw = i ; pt = j`` per host
    port) — else ``None``.  Such a union is a trie: per field, from the
    lowest-ranked up, the cubes that agree on every field above it become
    one ``lo``-linked chain over its values, ascending, ending in false.

    That is the node pairwise ``disjoin`` interns in any association:
    ``ite`` splits on the smallest root test, and the diagram of any
    sub-union of such cubes has its smallest test at the root (its
    ``hi`` child never tests that field, its ``lo`` child tests it or is
    false), so every fold splits where the trie does and hands
    :meth:`FddManager.branch` the same children.  Fields must be
    registered already.
    """
    rank = manager.field_rank
    normal: set[tuple[tuple[str, int], ...]] = set()
    for tests in cubes:
        values: dict[str, int] = {}
        if all(values.setdefault(field, value) == value for field, value in tests):
            if not values:
                return manager.true_leaf
            normal.add(tuple(sorted(values.items(), key=lambda test: rank(test[0]))))
    if not normal:
        return manager.false_leaf
    fields = {tuple(field for field, _ in cube) for cube in normal}
    if len(fields) > 1:
        return None
    (order,) = fields
    level = {tuple(value for _, value in cube): manager.true_leaf for cube in normal}
    for depth in range(len(order) - 1, -1, -1):
        chains: dict[tuple[int, ...], list[tuple[int, FddNode]]] = {}
        for prefix, node in level.items():
            chains.setdefault(prefix[:depth], []).append((prefix[depth], node))
        level = {}
        for prefix, chain in chains.items():
            result: FddNode = manager.false_leaf
            for value, node in sorted(chain, key=lambda link: link[0], reverse=True):
                result = manager.branch(order[depth], value, node, result)
            level[prefix] = result
    return level[()]


class RolePlan:
    """A spine-shaped sequence's diagram, kept per role (:meth:`Compiler.per_role`).

    The diagram :meth:`Compiler.compile` gives the sequence tests the
    dispatch ``field`` first, as one chain over ``values`` (ascending).
    Value ``values[i]`` leads to ``pieces[role[i]]`` with its placeholders
    renamed by row ``row[i]`` of ``constants[role[i]]``; every other value
    leads to ``rest``.  A piece is a role's template, compiled once and
    already reduced — placeholder ``j`` stands for a constant of field
    ``slots[piece][j]`` — or the reduced run of a value without a role (no
    placeholders).  :class:`~repro.core.fdd.flat.FlatDiagram`
    flattens each piece once and gathers every value's constants into its
    arrays, so no per-value diagram is ever built.  The whole diagram,
    :attr:`fdd`, is the plain compile's node, built on first use (plan
    keys, equivalence, exact stages) and kept.
    """

    def __init__(self, field: str, rest: FddNode, whole: Callable[[], FddNode]):
        self.field = field
        self.rest = rest
        self.values: list[int] = []
        self.role: list[int] = []
        self.row: list[int] = []
        self.pieces: list[FddNode] = []
        self.slots: list[tuple[str, ...]] = []
        self.constants: list[list[tuple[int, ...]]] = []
        self._index: dict[tuple[int, tuple[str, ...]], int] = {}
        self._whole: Callable[[], FddNode] | None = whole
        self._fdd: FddNode | None = None
        self._mentioned: dict[str, set[int]] | None = None

    def add(self, value: int, piece: FddNode, slots: tuple[str, ...], constants: tuple) -> None:
        """Lead ``value`` (above every value added so far) to ``piece``
        renamed by ``constants``."""
        index = self._index.setdefault((id(piece), slots), len(self.pieces))
        if index == len(self.pieces):
            self.pieces.append(piece)
            self.slots.append(slots)
            self.constants.append([])
        self.values.append(value)
        self.role.append(index)
        self.row.append(len(self.constants[index]))
        self.constants[index].append(constants)

    @property
    def fdd(self) -> FddNode:
        """The whole diagram (renamed, joined and reduced on first use)."""
        if self._fdd is None:
            self._fdd = self._whole()
            self._whole = None
        return self._fdd

    def mentioned_values(self) -> dict[str, set[int]]:
        """Per field, the values :attr:`fdd` tests or writes, read off the
        pieces once (a fresh copy each call)."""
        if self._mentioned is None:
            values = {name: set(found) for name, found in mentioned_values(self.rest).items()}
            values.setdefault(self.field, set()).update(self.values)
            for piece, table in zip(self.pieces, self.constants):
                for name, found in mentioned_values(piece).items():
                    into = values.setdefault(name, set())
                    for value in found:
                        if type(value) is Placeholder:
                            into.update(entry[value.index] for entry in table)
                        else:
                            into.add(value)
            self._mentioned = values
        return {name: set(found) for name, found in self._mentioned.items()}


class _Template:
    """A role's run over placeholders: its node, and the field of each placeholder."""

    __slots__ = ("node", "slots")

    def __init__(self, node: FddNode, slots: tuple[str, ...]):
        self.node = node
        self.slots = slots


#: A role key not looked up before.
_UNSEEN = object()


class _Runs:
    """The runs of one spine-shaped sequence (:meth:`Compiler.runs_per_value`)."""

    def __init__(self, compiler: Compiler, parts: Sequence[s.Policy], spine: tuple):
        field, marked, stable, located = spine
        compiler.manager.register_fields(located)
        self.compiler = compiler
        self.parts = parts
        self.field = field
        self.marked = marked
        self.stable = stable
        self.located = located
        self.first = next(i for i, table in enumerate(marked) if table is not None)
        whole = [
            None if table is not None else compiler.compile_unreduced(part)
            for part, table in zip(parts, marked)
        ]
        # Past ``stable`` the field may have been reassigned: those parts
        # run whole, and their product is the same for every value.
        self.suffix = [_fold(whole[stable:])] if stable < len(parts) else []
        self.default = self.run([
            fdd if fdd is not None else part.default
            for part, fdd in zip(parts[:stable], whole)
        ])
        self.values = sorted({
            value for table in marked if table is not None for value in table
        })
        self.whole_at = [
            ops.cofactors(fdd, field, self.values) if fdd is not None else None
            for fdd in whole[:stable]
        ]
        # Roles abstract the ``case`` that moves the packet, if there is
        # one and nothing after it tests where the packet is.
        self.mover = stable - 1
        self.roles = marked[self.mover] is not None and not _tests_any(parts[stable:], located)
        # Role key -> its template; ``None``: the key's values run plainly.
        self.templates: dict[tuple, _Template | None] = {}

    def run(self, head: Sequence[FddNode | s.Policy]) -> FddNode:
        """One value's product: per part, its cofactor or its ``case`` branch."""
        steps: list[FddNode] = []
        for item in head[self.first:]:
            if isinstance(item, FddNode):
                steps.append(item)
            else:
                branch = item.parts if isinstance(item, s.Seq) else (item,)
                steps.extend(map(self.compiler.compile_unreduced, branch))
        return _fold([*head[:self.first], _fold(steps + self.suffix)])

    def head(self, value: int) -> list[FddNode | s.Policy]:
        """Value ``value``'s parts: a cofactor, or the branch its ``case`` takes."""
        return [
            cofactor[value] if cofactor is not None else table.get(value, part.default)
            for part, table, cofactor in zip(self.parts[:self.stable], self.marked, self.whole_at)
        ]

    def role(self, value: int, head: list) -> tuple[_Template, list[int]] | None:
        """The template ``value`` instantiates and its constants, or ``None``."""
        if not self.roles:
            return None
        found = _role(head, self.mover, self.located, (self.field, value))
        if found is None:
            return None
        key, constants = found
        template = self.templates.get(key, _UNSEEN)
        if template is _UNSEEN:
            template = self.templates[key] = self._compile_template(head, value)
        return None if template is None else (template, constants)

    def _compile_template(self, head: list, value: int) -> _Template | None:
        found = _template(head[self.mover], self.located, (self.field, value))
        if found is None:
            return None
        branch, slots = found
        node = self.run([*head[:self.mover], branch, *head[self.mover + 1:]])
        self.compiler.manager.counters["compile_roles"] += 1
        return _Template(node, slots)

    def at(self, value: int) -> FddNode:
        """The run of ``value``: its template renamed, or its own product."""
        head = self.head(value)
        role = self.role(value, head)
        if role is None:
            return self.run(head)
        template, constants = role
        self.compiler.manager.counters["role_instances"] += 1
        return ops.map_leaves(template.node, _renaming(constants))

    def per_role(self, whole: Callable[[], FddNode]) -> RolePlan | None:
        """The runs as a :class:`RolePlan` whose ``fdd`` is ``whole()``, or ``None``.

        The whole diagram is ``reduce`` of the join of :meth:`_compile_seq`.
        When no run and not the default tests a field ranked at or above
        the dispatch field, that is one chain on it: value ``v`` leads to
        ``reduce`` of its run under ``field = v`` and every other value to
        ``reduce`` of the default, ``rest``.  A value whose run is the
        default (the join adds no test) or reduces to ``rest`` (the test
        collapses) is not on the chain.  A value with a role leads to its
        template renamed, which is its reduced run when ``reduce`` finds
        nothing to drop in the template, no constant equals a value the
        template or the default holds in the same field (the renaming then
        keeps equal and unequal values apart), and no leaf the join would
        intern for it is interned already, or renamed for another value,
        with its actions in another order.  Any other value takes its own
        run.  ``None`` when the chain is not the diagram's root, or when
        two values' leaves disagree on the order of one set of actions.
        """
        field, manager, default = self.field, self.compiler.manager, self.default
        rank = manager.field_rank(field)

        def below(node: FddNode) -> bool:
            """Whether ``node`` tests only fields ranked after ``field``."""
            return type(node) is Leaf or manager.field_rank(node.field) > rank

        if not below(default):
            return None
        rest = ops.reduce(default)
        fixed = mentioned_values(default)
        # Per template: None, or (on the chain, per placeholder the constants
        # it may not take, its leaves of several actions that hold one).
        facts: dict[int, tuple[bool, list[set], list[_Renaming]] | None] = {}

        def facts_of(template: _Template) -> tuple[bool, list[set], list[_Renaming]] | None:
            node = template.node
            if not below(node) or ops.reduce(node, ((field, Placeholder(0)),)) is not node:
                # A test of the field, or a write ``reduce`` drops: the leaf
                # left may be one interned before, its actions in another order.
                return None
            held = mentioned_values(node)
            forbidden = [
                {value for value in held.get(name, ()) if type(value) is not Placeholder}
                | fixed.get(name, set())
                for name in template.slots
            ]
            bare = not any(
                type(value) is Placeholder for found in held.values() for value in found
            )
            renamed = [
                _Renaming(leaf) for leaf in leaves(node)
                if len(leaf.dist) > 1 and any(
                    type(value) is Placeholder
                    for action in leaf.dist.support() if type(action) is Action
                    for _, value in action.mods
                )
            ]
            return not ((bare and node is default) or node is rest), forbidden, renamed

        # Values that take their own run go first: the join meets their
        # leaves interned.
        owns: dict[int, FddNode] = {}
        roles: list[tuple[int, list, _Template, list[int]]] = []

        def own(value: int, head: list) -> bool:
            """Put ``value``'s own reduced run on the chain; False if it is
            not below the dispatch field."""
            run = self.run(head)
            if run is default:
                return True
            node = ops.reduce(ops.restrict_eq(run, field, value), ((field, value),))
            if node is not rest:
                owns[value] = node
            return below(node)

        for value in self.values:
            head = self.head(value)
            role = self.role(value, head)
            if role is not None:
                template, constants = role
                fact = facts.get(id(template), _UNSEEN)
                if fact is _UNSEEN:
                    fact = facts[id(template)] = facts_of(template)
                if fact is not None and not any(
                    constant in forbidden for constant, forbidden in zip(constants, fact[1])
                ):
                    if fact[0]:
                        roles.append((value, head, template, constants))
                    continue
            if not own(value, head):
                return None
        orders: dict[frozenset, list] = {}
        instances: dict[int, tuple[_Template, tuple[int, ...]]] = {}
        for value, head, template, constants in roles:
            for renaming in facts[id(template)][2]:
                actions = renaming.of(constants)
                key = frozenset(zip(actions, renaming.ratios))
                interned = manager.interned(key)
                if interned is not None:
                    if [action for action, _ in interned.dist.items()] != actions:
                        break  # the join would find this leaf: take the run
                    continue
                if orders.setdefault(key, actions) != actions:
                    return None
            else:
                instances[value] = (template, tuple(constants))
                continue
            if not own(value, head):
                return None

        plan = RolePlan(field, rest, whole)
        for value in self.values:
            if value in owns:
                plan.add(value, owns[value], (), ())
            elif value in instances:
                template, constants = instances[value]
                plan.add(value, template.node, template.slots, constants)
        return plan


class _Renaming:
    """A template leaf of several actions, renamed per value without a
    ``Dist``: per action, its writes and where its placeholders sit in them;
    ``ratios`` are its masses as the manager keys them."""

    __slots__ = ("actions", "ratios")

    def __init__(self, leaf: Leaf):
        self.actions = []
        for action, _mass in leaf.dist.items():
            mods = list(action.mods) if type(action) is Action else []
            slots = [
                (at, name, value.index)
                for at, (name, value) in enumerate(mods) if type(value) is Placeholder
            ]
            self.actions.append((action, mods, slots))
        self.ratios = [mass.as_integer_ratio() for _action, mass in leaf.dist.items()]

    def of(self, constants: Sequence[int]) -> list[ActionOrDrop]:
        """The leaf's actions with ``constants`` put back, in its order."""
        renamed = []
        for action, mods, slots in self.actions:
            if slots:
                mods = mods.copy()
                for at, name, index in slots:
                    mods[at] = (name, constants[index])
                action = object.__new__(Action)
                object.__setattr__(action, "mods", tuple(mods))
            renamed.append(action)
        return renamed


class Compiler:
    """Compiles guarded ProbNetKAT programs to probabilistic FDDs.

    Parameters
    ----------
    manager:
        The FDD manager to intern nodes in.  All programs compared for
        equivalence must be compiled with the same manager.
    exact:
        When ``True``, loops are solved with exact rational SCC-ordered
        elimination; otherwise the sparse float64 LU solver is used
        (the role UMFPACK plays in McNetKAT).
    class_limit:
        Upper bound on the number of symbolic packet classes enumerated
        when solving a loop.  Compilation fails with a helpful error when
        the bound is exceeded; large network models should use the
        forward interpreter instead.
    """

    def __init__(
        self,
        manager: FddManager | None = None,
        exact: bool = False,
        class_limit: int = 100_000,
    ):
        self.manager = manager if manager is not None else FddManager()
        self.exact = exact
        self.class_limit = class_limit
        # Memoisation keyed by AST node identity.  The policy object is kept
        # in the value so its id cannot be recycled for a different node.
        self._raw_cache: dict[int, tuple[s.Policy, FddNode]] = {}

    # -- public API -----------------------------------------------------------
    def compile(self, policy: s.Policy) -> FddNode:
        """Compile a policy to its canonical FDD (memoised per AST node).

        The result is normalised with :func:`repro.core.fdd.ops.reduce` so
        that semantically equal programs compile to the identical interned
        node, making FDD comparison a complete equivalence check.

        Invariant: ``compile(p) is ops.reduce(compile_unreduced(p))`` —
        the program is normalised once, its loop-free sub-terms not at
        all.  ``reduce`` only drops leaf modifications implied by the
        tests above them, which every FDD operation carries down, so
        reducing the operands first arrives at the same interned node
        (or, where ``reduce`` is incomplete, at a less canonical one).
        A loop normalises its guard and body first (its symbolic domain
        is read off them) *and its result*, whose leaves write every
        field of a class.  Both steps are memoised where they happen.

        How a sequence is multiplied out (:meth:`runs_per_value`: one run
        per dispatch value, samplers composed from the right, one run
        compiled per switch role and renamed for every switch of it)
        decides the work, never the node: sequential composition is
        associative on diagrams, and a role's renamed template is the
        interned node the switch's own parts compile to.  This is the whole
        program's node, joined and reduced switch by switch; a query plan
        asks :meth:`per_role` instead, which keeps a network's hop as one
        template per role and a row of constants per switch, and builds
        this node only when something asks for it.
        """
        return ops.reduce(self.compile_unreduced(policy))

    def compile_unreduced(self, policy: s.Policy) -> FddNode:
        """Compile without the :func:`~repro.core.fdd.ops.reduce` pass.

        The reduce normalisation only matters when FDDs are compared for
        semantic equality; evaluation-only consumers (the interpreter's
        compiled-body fast path) skip it, as redundant leaf modifications
        are harmless no-ops under action application.
        """
        cached = self._raw_cache.get(id(policy))
        if cached is not None and cached[0] is policy:
            return cached[1]
        result = self._compile(policy)
        self._raw_cache[id(policy)] = (policy, result)
        return result

    # -- translation ------------------------------------------------------------
    def _compile(self, policy: s.Policy) -> FddNode:
        manager = self.manager
        sub = self.compile_unreduced
        if isinstance(policy, s.FalseP):
            return manager.false_leaf
        if isinstance(policy, s.TrueP):
            return manager.true_leaf
        if isinstance(policy, s.Test):
            return manager.from_test(policy.field, policy.value)
        if isinstance(policy, s.Assign):
            return manager.from_assign(policy.field, policy.value)
        if isinstance(policy, s.Not):
            return ops.negate(sub(policy.pred))
        if isinstance(policy, s.And):
            return ops.conjoin(sub(policy.left), sub(policy.right))
        if isinstance(policy, s.Or):
            return self._compile_disjunction(policy)
        if isinstance(policy, s.Seq):
            return self._compile_seq(policy.parts)
        if isinstance(policy, s.Union):
            if all(isinstance(part, s.Predicate) for part in policy.parts):
                result = manager.false_leaf
                for part in policy.parts:
                    result = ops.disjoin(result, sub(part))
                return result
            raise GuardedFragmentError(
                "union of non-predicate policies is outside the guarded fragment; "
                "use if/while/case instead"
            )
        if isinstance(policy, s.Choice):
            parts = [(sub(branch), prob) for branch, prob in policy.branches]
            return ops.convex(manager, parts)
        if isinstance(policy, s.IfThenElse):
            return ops.ite(sub(policy.guard), sub(policy.then), sub(policy.otherwise))
        if isinstance(policy, s.Case):
            # Fold the branches iteratively (equivalent to case_to_ite):
            # a wide case (one branch per switch) must not consume stack
            # proportional to the number of branches.
            result = sub(policy.default)
            for guard, branch in reversed(policy.branches):
                result = ops.ite(sub(guard), sub(branch), result)
            return result
        if isinstance(policy, s.WhileDo):
            return self._compile_while(policy)
        if isinstance(policy, s.Star):
            raise GuardedFragmentError(
                "Kleene star is outside the guarded fragment; use while loops"
            )
        raise TypeError(f"unknown policy node {type(policy)!r}")

    def _compile_disjunction(self, pred: s.Or) -> FddNode:
        """An ``Or`` tree: one pass over test cubes, else pairwise ``disjoin``.

        The tree is walked with a stack, so a chain of any depth compiles.
        When every disjunct is a conjunction of equality tests over the
        same fields :func:`_cube_union` builds the diagram without an
        ``ite`` per term; otherwise the disjuncts are folded pairwise in
        the tree's own association.  Either way the fields are registered
        in the order the pairwise compile meets their tests, and the node
        is the one it interns.
        """
        disjuncts = _operands(pred, s.Or)
        cubes = [_cube(disjunct) for disjunct in disjuncts]
        if all(cube is not None for cube in cubes):
            self.manager.register_fields(field for cube in cubes for field, _ in cube)
            union = _cube_union(self.manager, cubes)
            if union is not None:
                return union
        done: list[FddNode] = []
        stack: list[tuple[s.Predicate, bool]] = [(pred, False)]
        while stack:
            node, joined = stack.pop()
            if not isinstance(node, s.Or):
                done.append(self.compile_unreduced(node))
            elif joined:
                right = done.pop()
                done.append(ops.disjoin(done.pop(), right))
            else:
                stack.extend([(node, True), (node.right, False), (node.left, False)])
        return done[0]

    # -- sequences ----------------------------------------------------------------
    def _compile_seq(self, parts: Sequence[s.Policy]) -> FddNode:
        """Compile ``p₁ ; … ; pₙ`` — per dispatch value when spine-shaped (§5.1, §6).

        A network model is ``case sw=1 … case sw=n`` several times over;
        multiplying the n-switch diagrams of its parts drags every
        switch's disequalities through every product.  When the parts
        dispatch on one field (:func:`~repro.core.fdd.evaluator.dispatch_spine`)
        each value instead gets its own small product
        (:meth:`runs_per_value`, asked here for every value), and the
        per-value runs are joined once, with one ``ite`` each, over the
        run of the defaults.  A value whose run is just the default run
        restricted to it adds no test (the monolithic product would not
        have one either).
        """
        spine = dispatch_spine(parts)
        if spine is None:
            return _fold([self.compile_unreduced(part) for part in parts])
        return self._join(*self.runs_per_value(parts, spine))

    def _join(
        self, field: str, values: list[int], at: Callable[[int], FddNode], default: FddNode
    ) -> FddNode:
        """Every value's run, joined over the default run: one ``ite`` each."""
        default_at = ops.cofactors(default, field, values)
        result = default
        for value in reversed(values):
            at_value = at(value)
            if at_value is not default_at[value]:
                guard = self.manager.from_test(field, value)
                result = ops.ite(guard, at_value, result)
        return result

    def runs_per_value(
        self, parts: Sequence[s.Policy], spine: tuple
    ) -> tuple[str, list[int], Callable[[int], FddNode], FddNode]:
        """A spine-shaped sequence as ``(field, values, value → run, default run)``.

        ``spine`` is ``dispatch_spine(parts)``.  The run of value ``v`` is
        the diagram of ``p₁|v ; … ; pₙ|v`` — a ``case`` contributes its
        ``v``-branch, any other part its diagram restricted to
        ``field = v`` while the field still holds its input value — and is
        built when ``v`` is asked for: :meth:`_compile_seq` asks for every
        value and joins them, a :class:`~repro.core.fdd.evaluator.CompiledBody`
        for the values its packets visit.  This is the one definition of
        a switch's run; ``values`` are the dispatch values some ``case``
        names, sorted, and every other value runs ``default``.
        :meth:`per_role` reads the same runs without building one per value.

        Association order.  A run is ``lead ; (steps ; suffix)``: the
        value-independent ``suffix`` (flag resets, hop counter) is
        multiplied out once, and what precedes the first ``case`` (local
        initialisations, the ingress predicate) comes last — so a model's
        first hop and its loop body, which differ only in that lead-in,
        find each other's per-value tails in the ``sequence`` op cache.
        The ``steps`` are the value's branches, a ``Seq`` branch spliced
        in part by part, and every product is a :func:`_fold`: left to
        right, except that where there are several *samplers* — diagrams
        that are one leaf of more than one action, ``up_i <- 0 ⊕ up_i <- 1``
        — each is composed onto the product of everything after it.
        Each flag thus meets
        the routing/topology/reset product that tests and then overwrites
        it before it meets the switch's other m − 1 flags, and their
        2^m-action leaf is never built.

        One diagram per role.  Switches of one role (a fat-tree has
        seven, whatever its size) run the same program up to the
        constants their link program assigns.  A value's run is keyed by
        its :func:`_role` — a flat tuple of tokens read off its parts, the
        constants the ``case`` that re-assigns the dispatch field assigns
        to the located fields standing as placeholder indices — and the
        key's template (:func:`_template`) is compiled once, by the same
        ``run`` that serves a value without a role; a value asked for here
        is that template with the placeholders renamed back by one
        :func:`~repro.core.fdd.ops.map_leaves`.
        The renamed template *is* the node a compile of the value's own
        parts interns: no FDD operation looks at a value a leaf assigns
        except to restrict what follows by it, the role's precondition
        (read off the program, see :func:`_template`) is that nothing that
        follows tests a located field, and the renaming is injective per
        field, so actions are equal after it exactly when they were
        before.

        Field order: a spine's dispatch field, then the other fields
        written by the part that re-assigns it (``sw``, ``pt``: a packet's
        location), are ranked before any part is compiled; every other
        field ranks by first mention.  Each switch's diagram then hangs
        off one test of the join, instead of the join being repeated
        under every combination of the flags declared first.  A part
        that is not a ``case`` is asked once for its diagram at every
        value (:func:`~repro.core.fdd.ops.cofactors`): each node of an
        n-value chain is visited once, not once per value.
        """
        runs = _Runs(self, parts, spine)
        return runs.field, runs.values, runs.at, runs.default

    def per_role(self, policy: s.Policy) -> FddNode | RolePlan:
        """``policy``'s diagram as a :class:`RolePlan` where it is spine-shaped.

        The plan holds each role's template compiled and reduced once, a
        ``value → role`` index and each value's constants as one row of a
        table: no per-value diagram is renamed, joined or reduced.  Its
        ``fdd`` is :meth:`compile`'s node, built when first asked for.  A
        sequence whose diagram would test another field above the dispatch
        field, or whose every value runs the default, and any other
        program, come back as :meth:`compile`'s node.
        """
        if isinstance(policy, s.Seq):
            spine = dispatch_spine(policy.parts)
            if spine is not None:
                runs = _Runs(self, policy.parts, spine)
                plan = runs.per_role(lambda: self._whole(policy, runs))
                if plan is not None:
                    return plan if plan.values else plan.rest
        return self.compile(policy)

    def _whole(self, policy: s.Seq, runs: _Runs) -> FddNode:
        """:meth:`compile` of a spine-shaped ``policy``, joining ``runs``
        (whose templates are compiled already)."""
        cached = self._raw_cache.get(id(policy))
        if cached is None or cached[0] is not policy:
            joined = self._join(runs.field, runs.values, runs.at, runs.default)
            cached = self._raw_cache[id(policy)] = (policy, joined)
        return ops.reduce(cached[1])

    # -- loops --------------------------------------------------------------------
    def _compile_while(self, loop: s.WhileDo) -> FddNode:
        """Closed-form compilation of ``while t do p`` (§4).

        Over the single-packet state space the loop induces an absorbing
        Markov chain whose transient states are the packet classes
        satisfying the guard and whose absorbing states are the classes
        violating it (plus drop).  The absorption probabilities give the
        loop's big-step behaviour exactly.
        """
        manager = self.manager
        guard_fdd = self.compile(loop.guard)
        body_fdd = self.compile(loop.body)

        # Shared symbolic domain for guard and body.
        domains: dict[str, set[int]] = {}
        for node in (guard_fdd, body_fdd):
            for field, values in mentioned_values(node).items():
                domains.setdefault(field, set()).update(values)
        classes = enumerate_classes(domains, limit=self.class_limit)

        def guard_holds(cls: SymbolicPacket) -> bool:
            dist = ops_evaluate_bool(manager, guard_fdd, cls)
            return dist

        transient = [cls for cls in classes if guard_holds(cls)]
        absorbing: list[SymbolicPacket | _DropType] = [
            cls for cls in classes if not guard_holds(cls)
        ]
        absorbing.append(DROP)

        transitions: dict[SymbolicPacket, dict] = {}
        for cls in transient:
            row: dict = {}
            for outcome, prob in class_transition(body_fdd, cls).items():
                row[outcome] = row.get(outcome, Fraction(0)) + prob
            transitions[cls] = row

        if self.exact:
            result = solve_absorption_exact(transient, absorbing, transitions)
        else:
            result = solve_absorption_batched(transient, absorbing, transitions).result()

        rows: dict[SymbolicPacket, Dist] = {}
        for cls in classes:
            if guard_holds(cls):
                row = dict(result.get(cls, {}))
                lost = result.lost_mass.get(cls, 0)
                if lost:
                    # Mass that never exits the loop diverges; the guarded
                    # limit semantics assigns it to drop.
                    row[DROP] = row.get(DROP, 0) + lost
                rows[cls] = Dist(row, check=False)
            else:
                # Guard already false: the loop is the identity.
                rows[cls] = Dist.point(cls)

        domain_map: Mapping[str, tuple[int, ...]] = {
            field: tuple(sorted(values)) for field, values in domains.items()
        }
        # The rows write every concrete field of their output class, tested
        # above or not: normalise here, or a sequence built on this diagram
        # keeps tests that the program's one final ``reduce`` cannot remove.
        return ops.reduce(matrix_to_fdd(manager, domain_map, rows, default=manager.false_leaf))


def leaf_holds(leaf: Leaf) -> bool:
    """The boolean a predicate diagram's leaf stands for."""
    support = leaf.dist.support()
    if len(support) != 1:
        raise GuardedFragmentError("loop guard compiled to a non-deterministic FDD")
    (outcome,) = support
    if isinstance(outcome, _DropType):
        return False
    if outcome.is_identity():
        return True
    raise GuardedFragmentError("loop guard FDD has a non-boolean leaf")


def ops_evaluate_bool(manager: FddManager, pred_fdd: FddNode, cls: SymbolicPacket) -> bool:
    """Evaluate a predicate FDD on a symbolic class (must be boolean-leaved)."""
    return leaf_holds(leaf_of(pred_fdd, dict(cls.values).get))


def compile_policy(
    policy: s.Policy,
    manager: FddManager | None = None,
    exact: bool = False,
    class_limit: int = 100_000,
) -> FddNode:
    """Convenience wrapper: compile ``policy`` with a fresh :class:`Compiler`."""
    return Compiler(manager=manager, exact=exact, class_limit=class_limit).compile(policy)
