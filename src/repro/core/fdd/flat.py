"""Flat stage diagrams: a class layout and a diagram over it, as arrays.

A stage runs on symbolic classes over one *layout*: the stage's fields,
sorted, each with the values its diagrams mention.  Here a class is a
row of int codes over that layout — code 0 is the wildcard, code ``i + 1``
the field's ``i``-th value — and a diagram is flattened once per layout:

* each same-field chain (:func:`~repro.core.fdd.node.chain_table`)
  becomes its field's position and one child per code;
* each leaf becomes action arrays: the fields an action writes, the codes
  it writes, whether it drops, and its float probability.

A whole frontier of classes then walks to its leaves one chain level at a
time, and its successor rows are built by array operations
(:meth:`FlatDiagram.step`), with no Python per class.  A layout packs a
row into one fixed-width *key* — mixed radix over the fields, in as many
63-bit words as the layout needs (:meth:`ClassLayout.keys`); sorted keys
(:class:`KeyIndex`) are how a chain tells new classes from known ones.

A query's batch stays on codes between stages too: its outcome columns
are classes over the plan's layout plus a residual id (:class:`Columns`),
each stage's layout sits inside the plan's by per-field translation
arrays (:class:`Projection`), and a stage keeps its rows as CSR arrays
over an outcome index (:class:`ClassRows`).

Import rule: numpy is imported inside the functions that build or walk
arrays.  A layout that only classifies packets and decodes codes never
loads it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core.distributions import Dist
from repro.core.fdd.node import Branch, FddNode, Leaf, chain_table
from repro.core.packet import DROP, Packet

if TYPE_CHECKING:
    import numpy as np

#: A class over a layout: one code per field (0 for the wildcard).
Codes = tuple[int, ...]

#: Leaf actions whose writes one flattening step turns into arrays.
_ACTIONS_PER_BLOCK = 4096


class ClassRow:
    """A transition row as parallel tuples instead of a ``Dist``.

    ``outcomes[k]`` is the class (or :data:`DROP`) reached with
    probability ``probs[k]``.  Duplicate outcomes are merged at
    construction, so ``dict(row.items())`` is lossless.  The
    :class:`~repro.core.distributions.Dist` API remains available for
    callers that want it via :meth:`to_dist`.
    """

    __slots__ = ("outcomes", "probs")

    def __init__(self, outcomes: tuple, probs: tuple):
        self.outcomes = outcomes
        self.probs = probs

    @classmethod
    def from_items(cls, items) -> ClassRow:
        """Build (merging duplicates) from ``(outcome, prob)`` pairs."""
        merged: dict = {}
        for outcome, prob in items:
            merged[outcome] = merged.get(outcome, 0.0) + float(prob)
        return cls(tuple(merged), tuple(merged.values()))

    def items(self):
        """Iterate ``(outcome, prob)`` pairs, mirroring ``Dist.items``."""
        return zip(self.outcomes, self.probs)

    def support(self):
        return self.outcomes

    def to_dist(self) -> Dist:
        return Dist(dict(self.items()), check=False)


class ClassLayout:
    """The fields of a stage, sorted, and the codes of their values.

    ``fields[i]`` holds the values ``values[i]`` (sorted); a class is a
    tuple of one code per field, and tuples of codes sort as the classes'
    values do, wildcards first.  The key of a class is its codes in mixed
    radix, field by field, packed greedily into 63-bit words
    (:meth:`keys`): one word for every layout the benchmarks reach, two
    from FatTree k=48 with failures up.
    """

    __slots__ = ("fields", "values", "position", "code", "_coded", "_radix", "_dtype")

    def __init__(self, domains: Mapping[str, Iterable[int]]):
        self.fields: tuple[str, ...] = tuple(sorted(domains))
        self.values: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(domains[name]))) for name in self.fields
        )
        self.position = {name: at for at, name in enumerate(self.fields)}
        #: Per field, ``value -> code``.
        self.code = tuple(
            {value: code for code, value in enumerate(values, 1)} for values in self.values
        )
        # A (field, value) pair -> its position << 32 | its code: one probe per pair.
        self._coded = {
            (name, value): at << 32 | code
            for at, (name, table) in enumerate(zip(self.fields, self.code))
            for value, code in table.items()
        }
        self._radix: np.ndarray | None = None
        self._dtype = None

    @property
    def domains(self) -> dict[str, tuple[int, ...]]:
        return dict(zip(self.fields, self.values))

    @property
    def dtype(self):
        """The numpy integer type of a code: 16 bits unless a field has
        more than 32 766 values."""
        if self._dtype is None:
            import numpy as np

            wide = max(map(len, self.values), default=0) >= 2**15 - 1
            self._dtype = np.int32 if wide else np.int16
        return self._dtype

    def array(self, classes: Sequence[Codes]) -> np.ndarray:
        """``classes`` as one ``len × fields`` array of codes."""
        import numpy as np

        return np.array(classes, dtype=self.dtype).reshape(len(classes), len(self.fields))

    @property
    def words(self) -> int:
        """How many int64 words a key takes."""
        return self._radices().shape[1]

    def classify(self, packet: Packet) -> tuple[Codes, tuple[tuple[str, int], ...]]:
        """The class of ``packet`` and its residual: the pairs no code holds
        (fields outside the layout, values outside a field's domain), sorted."""
        codes = [0] * len(self.fields)
        residual = []
        coded = self._coded.get
        for item in packet.items():
            found = coded(item)
            if found is None:
                residual.append(item)
            else:
                codes[found >> 32] = found & 0xFFFFFFFF
        return tuple(codes), tuple(residual)

    def encode(self, pairs: Iterable[tuple[str, int | None]]) -> Codes:
        """The codes of a class given as ``(field, value)`` pairs; a field
        outside the layout is ignored, a value outside its domain (or
        ``None``) is the wildcard."""
        lookup = dict(pairs).get
        return tuple(
            table.get(lookup(name), 0) for name, table in zip(self.fields, self.code)
        )

    def pairs(self, codes: Codes) -> tuple[tuple[str, int | None], ...]:
        """The sorted ``(field, value)`` pairs of a class, ``None`` for a wildcard."""
        return tuple(
            (name, values[code - 1] if code else None)
            for name, values, code in zip(self.fields, self.values, codes)
        )

    def assignments(self, codes: Codes) -> dict[str, int]:
        """The concrete fields of a class: what decoding writes onto a packet."""
        return {
            name: values[code - 1]
            for name, values, code in zip(self.fields, self.values, codes)
            if code
        }

    def _radices(self) -> np.ndarray:
        """``fields × words``: the place value of each field in its word."""
        if self._radix is None:
            import numpy as np

            places, word, span = [], 0, 1
            for values in self.values:
                base = len(values) + 1
                if span * base > 1 << 63:
                    word, span = word + 1, 1
                places.append((word, span))
                span *= base
            self._radix = np.zeros((len(self.fields), word + 1), dtype=np.int64)
            for at, (word, span) in enumerate(places):
                self._radix[at, word] = span
        return self._radix

    def keys(self, codes: np.ndarray) -> np.ndarray:
        """One key per row of ``codes``, equal exactly when the rows are.

        An int64 per row when the layout fits one word; otherwise the
        words of a row as one fixed-width byte string.
        """
        return self._packed(codes @ self._radices())

    def _packed(self, words: np.ndarray) -> np.ndarray:
        import numpy as np

        if words.shape[1] == 1:
            return words[:, 0]
        return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1]))).ravel()

    @property
    def drop_key(self) -> np.ndarray:
        """A key no class has (every word ``-1``): what a drop entry is keyed by."""
        import numpy as np

        return self._packed(np.full((1, self.words), -1, dtype=np.int64))[0]


class Placeholder:
    """Stands for a constant in the leaf writes of a role's template.

    A value type of its own, not a reserved integer: it only ever sits
    where an assignment's value would, compares equal to no integer a
    program can test (only to a placeholder of the same index), and is gone
    from every diagram a compile hands out.  :meth:`FlatDiagram.of_roles`
    gathers each switch's constant where one is written.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other: object) -> bool:
        return type(other) is Placeholder and other.index == self.index

    def __hash__(self) -> int:
        return hash((Placeholder, self.index))

    def __repr__(self) -> str:
        return f"Placeholder({self.index})"


class FlatDiagram:
    """A diagram over one :class:`ClassLayout`, as arrays (module docstring).

    Chains are numbered from 0 in discovery order; a child is a chain
    number or ``-1 - leaf``.  ``jump[offset[c] + code]`` is chain ``c``'s
    child for ``code`` in field ``field[c]``; a chain on a field outside
    the layout is skipped (every class takes its fall-through).  A
    diagram that writes a value the layout has no code for is refused.
    :meth:`of_roles` builds the same walk from a per-role plan.
    """

    __slots__ = (
        "layout", "leaves", "root", "_field", "_offset", "_jump",
        "_first", "_count", "_collide", "_drop", "_mask", "_written", "_prob", "_truth",
    )

    def __init__(self, node: FddNode, layout: ClassLayout):
        flat = _flatten([(node, ())], layout)
        self._adopt(layout, int(flat.root[0]), flat.leaves, flat.field, flat.offset, flat.jump)
        self._leaf_arrays(flat.count, flat.prob, flat.drop, flat.mask, flat.written, flat.collide)

    def _adopt(self, layout, root, leaves, field, offset, jump) -> None:
        self.layout = layout
        self.root = root
        self.leaves = leaves
        self._field, self._offset, self._jump = field, offset, jump
        self._truth: np.ndarray | None = None

    def _leaf_arrays(self, count, prob, drop, mask, written, collide) -> None:
        self._count, self._prob, self._drop = count, prob, drop
        self._mask, self._written, self._collide = mask, written, collide
        self._first = count.cumsum() - count

    @classmethod
    def of_roles(cls, plan, layout: ClassLayout) -> FlatDiagram:
        """The flat form of a :class:`~repro.core.compiler.RolePlan`'s diagram.

        ``rest`` and every piece are flattened once.  Each value gets a
        copy of its piece: the piece's chains, leaves and actions with its
        chain and leaf numbers moved past the copies before it and its row
        of constants gathered into the codes its placeholders write — for
        all values at once, by array gathers.  The root is one chain on
        the dispatch field: each of the plan's values leads to its copy's
        root, every other code to ``rest``'s.  Walks and steps are those
        of the flattened whole diagram, ``plan.fdd``, which is not built;
        where that diagram shares a sub-diagram between values, each value
        has a copy.  ``leaves`` lists, per leaf, the piece's leaf it was
        copied from.
        """
        import numpy as np

        at = layout.position.get(plan.field)
        if at is None:  # the chain on the dispatch field is skipped
            return cls(plan.rest, layout)
        flat = _flatten([(plan.rest, ()), *zip(plan.pieces, plan.slots)], layout)
        # One copy of rest, then one per value, piece after piece.
        copies = np.array([1, *map(len, plan.constants)], dtype=np.int64)
        block = np.repeat(np.arange(len(copies)), copies)
        width = 1 + len(layout.values[at])
        chains, jumps, leaves, actions, placed = (
            np.diff(bounds)[block]
            for bounds in (flat.chains, flat.jumps, flat.leaf_bounds, flat.actions, flat.placings)
        )
        chain_base = 1 + _starts(chains)
        jump_base = width + _starts(jumps)
        leaf_base = _starts(leaves)
        action_base = _starts(actions)

        def moved(ids: np.ndarray, copy: np.ndarray) -> np.ndarray:
            return np.where(ids >= 0, ids + chain_base[copy], ids - leaf_base[copy])

        at_chain, of_chain = _ragged(flat.chains[:-1][block], chains)
        at_jump, of_jump = _ragged(flat.jumps[:-1][block], jumps)
        at_leaf, _ = _ragged(flat.leaf_bounds[:-1][block], leaves)
        at_action, _ = _ragged(flat.actions[:-1][block], actions)
        roots = moved(flat.root[block], np.arange(len(block)))
        root_jump = np.full(width, roots[0], dtype=np.int64)
        if plan.values:
            first_copy = _starts(copies)
            copy = first_copy[np.array(plan.role, dtype=np.int64) + 1] + np.array(plan.row)
            root_jump[np.searchsorted(layout.values[at], plan.values) + 1] = roots[copy]
        written = flat.written[at_action]
        if len(flat.placed):
            at_placed, of_placed = _ragged(flat.placings[:-1][block], placed)
            action, field, index = flat.placed[at_placed].T
            constants = _table(plan.constants)[of_placed - 1, index]
            written[action_base[of_placed] + action, field] = _codes(layout, field, constants)
        result = cls.__new__(cls)
        result._adopt(
            layout,
            0,
            [leaf for piece, count in zip(flat.pieces, copies.tolist()) for leaf in piece * count],
            np.concatenate([[at], flat.field[at_chain]]),
            np.concatenate([[0], flat.offset[at_chain] + jump_base[of_chain]]),
            np.concatenate([root_jump, moved(flat.jump[at_jump], of_jump)]),
        )
        result._leaf_arrays(
            flat.count[at_leaf],
            flat.prob[at_action],
            flat.drop[at_action],
            flat.mask[at_action],
            written,
            flat.collide[at_leaf],
        )
        return result

    def leaves_of(self, codes: np.ndarray) -> np.ndarray:
        """The leaf each row of ``codes`` reaches: one chain level per step."""
        import numpy as np

        at = np.full(len(codes), self.root, dtype=np.int64)
        live = np.flatnonzero(at >= 0)
        while len(live):
            chain = at[live]
            child = self._jump[self._offset[chain] + codes[live, self._field[chain]]]
            at[live] = child
            keep = child >= 0
            live = live[keep]
        return -1 - at

    def holds(self, codes: np.ndarray) -> np.ndarray:
        """A predicate diagram on each row of ``codes``: its leaf's boolean
        (:func:`~repro.core.compiler.leaf_holds`, once per leaf reached)."""
        import numpy as np

        if self._truth is None:
            self._truth = np.full(len(self.leaves), -1, dtype=np.int8)
        reached = self.leaves_of(codes)
        truth = self._truth[reached]
        if (truth < 0).any():
            from repro.core.compiler import leaf_holds

            for leaf in set(reached[truth < 0].tolist()):
                self._truth[leaf] = leaf_holds(self.leaves[leaf])
            truth = self._truth[reached]
        return truth == 1

    def step(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One step of every row of ``codes`` (an ``m × fields`` array).

        Returns ``(owner, successors, drop, keys, probs)`` over the row
        entries, row-major and in the order each leaf lists its actions:
        the row an entry belongs to, the successor's codes, whether it is
        the drop outcome (its codes and key are then meaningless), its
        :meth:`ClassLayout.keys` key and its float probability.  Two
        actions of one leaf that reach the same class on a row are one
        entry, at the first one's place, their probabilities summed in
        action order from ``0.0``, as a dict merge would.
        """
        import numpy as np

        leaf = self.leaves_of(codes)
        counts = self._count[leaf]
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        owner = np.repeat(np.arange(len(codes)), counts)
        action = np.arange(total) + np.repeat(self._first[leaf] - (ends - counts), counts)
        drop = self._drop[action]
        successors = np.where(self._mask[action], self._written[action], codes[owner])
        keys = self.layout.keys(successors)
        probs = self._prob[action]
        if self._collide[leaf].any():
            owner, successors, drop, keys, probs = _merge(owner, successors, drop, keys, probs)
        return owner, successors, drop, keys, probs

    def rows(self, classes: Sequence[Codes]) -> list[ClassRow]:
        """The rows of ``classes`` as :class:`ClassRow` s over codes and
        :data:`DROP`, from one :meth:`step`."""
        import numpy as np

        codes = self.layout.array(classes)
        owner, successors, drop, _keys, probs = self.step(codes)
        bounds = np.searchsorted(owner, np.arange(len(classes) + 1)).tolist()
        outcomes = [
            DROP if dropped else tuple(row)
            for dropped, row in zip(drop.tolist(), successors.tolist())
        ]
        probs = probs.tolist()
        return [
            ClassRow(tuple(outcomes[start:stop]), tuple(probs[start:stop]))
            for start, stop in zip(bounds, bounds[1:])
        ]


class _Flat:
    """Several diagrams' arrays over one layout (:func:`_flatten`), each
    diagram's chains, leaves and actions numbered from 0 and stored one
    diagram after the other: diagram ``d``'s are rows ``bounds[d]`` to
    ``bounds[d + 1]`` of their arrays (``chains``, ``jumps``,
    ``leaf_bounds``, ``actions``, ``placings``), and ``root[d]`` is its
    root.  ``placed`` lists ``(action, field position, placeholder
    index)`` per placeholder write, whose code in ``written`` is 0."""

    __slots__ = (
        "root", "leaves", "pieces", "field", "offset", "jump", "count", "prob", "drop",
        "mask", "written", "collide", "placed",
        "chains", "jumps", "leaf_bounds", "actions", "placings",
    )


def _flatten(nodes: Sequence[tuple[FddNode, Sequence[str]]], layout: ClassLayout) -> _Flat:
    """Each ``(node, slots)`` of ``nodes`` as arrays over ``layout``; ``slots``
    names the field of each placeholder the node's leaves may write."""
    import numpy as np

    flat = _Flat()
    position = layout.position
    roots, leaves, pieces, field, offset, jump = [], [], [], [], [], []
    bounds: tuple[list[int], ...] = ([0], [0], [0], [0], [0])
    placed: list[tuple[int, int, int]] = []
    mods: list[tuple] = []
    for node, slots in nodes:
        ids: dict[int, int] = {}
        chains: list[Branch] = []
        mine: list[Leaf] = []

        def ident(current: FddNode) -> int:
            while type(current) is Branch and current.field not in position:
                current = chain_table(current)[1]
            got = ids.get(current.uid)
            if got is None:
                if type(current) is Branch:
                    got = len(chains)
                    chains.append(current)
                else:
                    got = -1 - len(mine)
                    mine.append(current)
                ids[current.uid] = got
            return got

        roots.append(ident(node))
        cursor, jumped = 0, len(jump)
        while cursor < len(chains):  # ident() appends what it discovers
            chain = chains[cursor]
            cursor += 1
            at = position[chain.field]
            table, rest = chain_table(chain)
            default = ident(rest)
            field.append(at)
            offset.append(len(jump) - jumped)
            jump.append(default)
            for value in layout.values[at]:
                child = table.get(value)
                jump.append(default if child is None else ident(child))
        for leaf in mine:
            for action, _ in leaf.dist.items():
                writes = () if action is DROP else action.mods
                if slots and any(type(value) is Placeholder for _, value in writes):
                    for name, value in writes:
                        if type(value) is Placeholder:
                            if name not in position:
                                raise ValueError(
                                    f"the diagram writes {name}, outside the class layout"
                                )
                            placed.append((len(mods) - bounds[3][-1], position[name], value.index))
                mods.append(writes)
        leaves.extend(mine)
        pieces.append(mine)
        for into, size in zip(bounds, (len(field), len(jump), len(leaves), len(mods), len(placed))):
            into.append(size)
    flat.root = np.array(roots, dtype=np.int64)
    flat.leaves, flat.pieces = leaves, pieces
    flat.field = np.array(field, dtype=np.int64)
    flat.offset = np.array(offset, dtype=np.int64)
    flat.jump = np.array(jump, dtype=np.int64)
    flat.chains, flat.jumps, flat.leaf_bounds, flat.actions, flat.placings = (
        np.array(sizes, dtype=np.int64) for sizes in bounds
    )
    flat.placed = np.array(placed, dtype=np.int64).reshape(len(placed), 3)

    actions = [pair for leaf in leaves for pair in leaf.dist.items()]
    count = [len(leaf.dist) for leaf in leaves]
    flat.count = np.array(count, dtype=np.int64)
    flat.prob = np.array([float(prob) for _, prob in actions], dtype=np.float64)
    flat.drop = np.array([action is DROP for action, _ in actions], dtype=bool)
    flat.mask = np.zeros((len(mods), len(layout.fields)), dtype=bool)
    flat.written = np.zeros((len(mods), len(layout.fields)), dtype=layout.dtype)
    flat.mask[flat.actions[np.repeat(np.arange(len(nodes)), np.diff(flat.placings))]
              + flat.placed[:, 0], flat.placed[:, 1]] = True
    coded = layout._coded
    # In blocks of actions: one int per written field would be the
    # largest array of a flattening.
    for start in range(0, len(mods), _ACTIONS_PER_BLOCK):
        block = [
            [pair for pair in writes if type(pair[1]) is not Placeholder]
            for writes in mods[start : start + _ACTIONS_PER_BLOCK]
        ] if len(placed) else mods[start : start + _ACTIONS_PER_BLOCK]
        lengths = [len(writes) for writes in block]
        try:
            hits = np.fromiter(
                map(coded.__getitem__, itertools.chain.from_iterable(block)),
                dtype=np.int64,
                count=sum(lengths),
            )
        except KeyError as error:
            name, value = error.args[0]
            raise ValueError(
                f"the diagram writes {name}={value}, outside the class layout"
            ) from None
        owner = np.repeat(np.arange(start, start + len(block)), lengths)
        flat.mask[owner, hits >> 32] = True
        flat.written[owner, hits >> 32] = hits & 0xFFFFFFFF
    flat.collide = np.zeros(len(leaves), dtype=bool)
    first = flat.count.cumsum() - flat.count
    for leaf in np.flatnonzero(_mixed_writes(flat.mask, flat.drop, flat.count)).tolist():
        start = int(first[leaf])
        flat.collide[leaf] = _may_collide(mods[start : start + count[leaf]])
    return flat


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``lengths`` starts."""
    return lengths.cumsum() - lengths


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs ``starts[i]``, ``starts[i] + 1``, … of ``lengths[i]`` each, one
    after the other, and the run each entry belongs to."""
    import numpy as np

    run = np.repeat(np.arange(len(lengths)), lengths)
    return np.arange(len(run)) + (starts - _starts(lengths))[run], run


def _table(rows: Sequence[Sequence[tuple[int, ...]]]) -> np.ndarray:
    """Every piece's constants rows, one after the other, as one int table
    (rows shorter than the longest padded with 0)."""
    import numpy as np

    width = max((len(row) for table in rows for row in table[:1]), default=0)
    table = np.zeros((sum(map(len, rows)), width), dtype=np.int64)
    at = 0
    for mine in rows:
        if mine and mine[0]:
            table[at : at + len(mine), : len(mine[0])] = mine
        at += len(mine)
    return table


def _codes(layout: ClassLayout, field: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The code of each ``values[i]`` in field ``field[i]`` of ``layout``."""
    import numpy as np

    codes = np.zeros(len(values), dtype=np.int64)
    for at in np.unique(field).tolist():
        domain = np.array(layout.values[at], dtype=np.int64)
        mine = field == at
        found = np.minimum(np.searchsorted(domain, values[mine]), max(len(domain) - 1, 0))
        if not len(domain) or (domain[found] != values[mine]).any():
            raise ValueError(
                f"the diagram writes {layout.fields[at]} values outside the class layout"
            )
        codes[mine] = found + 1
    return codes


def _mixed_writes(mask: np.ndarray, drop: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per leaf (``count`` actions each, in order), whether its non-drop
    actions write more than one set of fields: the leaves
    :func:`_may_collide` asks about."""
    import numpy as np

    leaf = np.repeat(np.arange(len(count)), count)[~drop]
    writes = mask[~drop]
    # Each non-drop action against its leaf's first non-drop action.
    _, first = np.unique(leaf, return_index=True)
    reference = np.repeat(first, np.diff(np.append(first, len(leaf))))
    differs = (writes != writes[reference]).any(axis=1)
    return np.bincount(leaf[differs], minlength=len(count)) > 0


def _may_collide(writes: list[tuple[tuple[str, int], ...]]) -> bool:
    """Whether two of a leaf's actions can send one class to one successor.

    ``writes`` are the leaf's actions' ``mods`` (drop writes nothing and
    is one action).  Two actions that write the same fields differ in
    some written value (a leaf holds each action once), so only actions
    writing different field sets can meet: they do on the classes that
    hold, where one writes and the other does not, what the other writes
    — unless both write some field with different values.
    """
    by_fields: dict[tuple[str, ...], list[dict[str, int]]] = {}
    for mods in writes:
        by_fields.setdefault(tuple(name for name, _ in mods), []).append(mods)
    if len(by_fields) < 2:
        return False
    groups = [(fields, [dict(mods) for mods in members]) for fields, members in by_fields.items()]
    for i, (fields, members) in enumerate(groups):
        for other, others in groups[i + 1:]:
            shared = sorted(set(fields) & set(other))
            mine = {tuple(m[name] for name in shared) for m in members}
            if any(tuple(m[name] for name in shared) in mine for m in others):
                return True
    return False


def _merge(owner, successors, drop, keys, probs):
    """:meth:`FlatDiagram.step`'s entries with each row's repeated successors merged."""
    import numpy as np

    # Entries group by (row, drop, key): a leaf drops by one action at
    # most, so a drop entry never merges.
    order = np.argsort(keys, kind="stable")
    order = order[np.argsort(drop[order], kind="stable")]
    order = order[np.argsort(owner[order], kind="stable")]
    ranked_owner, ranked_keys, ranked_drop = owner[order], keys[order], drop[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (
        (ranked_owner[1:] != ranked_owner[:-1])
        | (ranked_drop[1:] != ranked_drop[:-1])
        | (ranked_keys[1:] != ranked_keys[:-1])
    )
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(fresh) - 1
    # bincount adds in entry order from zero: the dict merge's sums.
    sums = np.bincount(group, weights=probs)
    keep = np.zeros(len(order), dtype=bool)
    keep[order[fresh]] = True
    return owner[keep], successors[keep], drop[keep], keys[keep], sums[group[keep]]


class KeyIndex:
    """Class keys (:meth:`ClassLayout.keys`), sorted, and the number each stands for."""

    __slots__ = ("keys", "numbers")

    def __init__(self, layout: ClassLayout):
        import numpy as np

        self.keys = layout.keys(np.zeros((0, len(layout.fields)), dtype=layout.dtype))
        self.numbers = np.zeros(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The number of each key, ``-1`` where there is none."""
        import numpy as np

        if not len(self.keys):
            return np.full(len(keys), -1, dtype=np.int64)
        at = self.keys.searchsorted(keys)
        np.minimum(at, len(self.keys) - 1, out=at)
        found = self.numbers[at]
        found[self.keys[at] != keys] = -1
        return found

    def number(self, keys: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """The number of each of ``keys``: a held key's own, the others
        numbered from ``start`` in the order they first occur, and held
        from now on.  Returns the numbers and, per new number, the first
        row of ``keys`` that has it."""
        import numpy as np

        numbers = self.find(keys)
        missing = (numbers < 0).nonzero()[0]
        if len(missing):
            group, first = group_rows(keys[missing], None)
            numbers[missing] = start + group
            missing = missing[first]
            self.insert(keys[missing], np.arange(start, start + len(first)))
        return numbers, missing

    def insert(self, keys: np.ndarray, numbers: np.ndarray) -> None:
        """Add ``keys`` (distinct, none held yet) standing for ``numbers``.

        The arrays are replaced, never written in place, so a caller may
        keep the old pair to roll back to.
        """
        import numpy as np

        order = keys.argsort()
        keys, numbers = keys[order], numbers[order]
        if not len(self.keys):
            self.keys, self.numbers = keys, numbers
            return
        # Where each new key lands in the merged order, and the old ones around them.
        at = self.keys.searchsorted(keys) + np.arange(len(keys))
        new = np.zeros(len(self.keys) + len(keys), dtype=bool)
        new[at] = True
        merged = np.empty(len(new), dtype=self.keys.dtype)
        merged[at], merged[~new] = keys, self.keys
        numbered = np.empty(len(new), dtype=np.int64)
        numbered[at], numbered[~new] = numbers, self.numbers
        self.keys, self.numbers = merged, numbered


class ClassRows:
    """Where a stage sends each class it was asked about: CSR rows over an outcome index.

    Rows are found by class key.  An entry is an outcome id and a
    probability, in the order the stage lists them.  Outcome 0 is drop;
    any other is a class over ``layout``, ``codes[id]``, each once (found
    by key, numbered as first met).  Row 0 is drop's own: one entry,
    outcome 0, mass one.  Rows and outcomes are only appended; the arrays
    grow by doubling.
    """

    def __init__(self, layout: ClassLayout, exact: bool = False):
        import numpy as np

        self.layout = layout
        self._index = KeyIndex(layout)
        self._outcome_index = KeyIndex(layout)
        self._rows, self._entries, self._outcomes = 1, 1, 1
        self._first = np.zeros(1, dtype=np.int64)
        self._count = np.ones(1, dtype=np.int64)
        #: Per entry, its outcome id and its probability.
        self.outcomes = np.zeros(1, dtype=np.int64)
        self.probs = np.ones(1, dtype=object if exact else np.float64)
        self.probs[0] = 1.0
        #: Per outcome id, its class (drop's: every field a wildcard).
        self.codes = np.zeros((1, len(layout.fields)), dtype=layout.dtype)

    def __len__(self) -> int:
        """Class rows held (drop's not counted)."""
        return self._rows - 1

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each class key, ``-1`` where there is none."""
        return self._index.find(keys)

    def outcome_ids(self, codes: np.ndarray, keys: np.ndarray, drop: np.ndarray) -> np.ndarray:
        """The outcome id of each class of ``codes`` (with ``keys``; ``0``
        where ``drop``), numbering the new ones in the order they first occur."""
        import numpy as np

        ids = np.zeros(len(keys), dtype=np.int64)
        live = (~drop).nonzero()[0]
        ids[live], new = self._outcome_index.number(keys[live], self._outcomes)
        size = self._outcomes + len(new)
        if size > len(self.codes):
            self.codes = _grown(self.codes, size)
        self.codes[self._outcomes : size] = codes[live[new]]
        self._outcomes = size
        return ids

    def add(
        self, keys: np.ndarray, counts: np.ndarray, outcomes: np.ndarray, probs: np.ndarray
    ) -> None:
        """Append the rows of the classes ``keys`` (distinct, none held):
        ``counts[i]`` entries each, in order, over outcome ids."""
        import numpy as np

        rows, entries = self._rows + len(keys), self._entries + len(probs)
        if rows > len(self._first):
            self._first, self._count = _grown(self._first, rows), _grown(self._count, rows)
        if entries > len(self.probs):
            self.outcomes, self.probs = _grown(self.outcomes, entries), _grown(self.probs, entries)
        self._first[self._rows : rows] = self._entries + counts.cumsum() - counts
        self._count[self._rows : rows] = counts
        self.outcomes[self._entries : entries] = outcomes
        self.probs[self._entries : entries] = probs
        self._index.insert(keys, np.arange(self._rows, rows))
        self._rows, self._entries = rows, entries

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, at)``: the number of entries of each of ``rows`` and
        their entries, row after row."""
        import numpy as np

        counts = self._count[rows]
        ends = counts.cumsum()
        at = np.arange(ends[-1] if len(ends) else 0) + (self._first[rows] - ends + counts).repeat(
            counts
        )
        return counts, at


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` in a buffer twice ``size`` long (its rows first)."""
    import numpy as np

    grown = np.zeros((2 * size, *array.shape[1:]), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class Projection:
    """One stage's layout inside its plan's: per field, code-translation arrays.

    A plan's layout (:meth:`for_stages`) holds every field of every stage
    with every value some stage mentions, so a class over it says of a
    packet everything any stage can test or write.  A stage's field maps
    each plan code *down* to the stage's code for the same value (``0``,
    the stage's wildcard, where the stage does not mention it) and each
    stage code back *up*.  The arrays depend only on the two layouts:
    built once per plan.
    """

    __slots__ = ("plan", "stage", "at", "_down", "_down_offset", "_up", "_up_offset")

    def __init__(self, plan: ClassLayout, stage: ClassLayout):
        import numpy as np

        self.plan, self.stage = plan, stage
        #: Per stage field, its position in the plan's layout.
        self.at = np.array([plan.position[name] for name in stage.fields], dtype=np.int64)
        down, down_offset, up, up_offset = [], [], [], []
        for name, values in zip(stage.fields, stage.values):
            there = plan.position[name]
            down_offset.append(len(down))
            down.append(0)
            codes = stage.code[stage.position[name]]
            down.extend(codes.get(value, 0) for value in plan.values[there])
            up_offset.append(len(up))
            up.append(0)
            up.extend(plan.code[there][value] for value in values)
        self._down = np.array(down, dtype=stage.dtype)
        self._down_offset = np.array(down_offset, dtype=np.int64)
        self._up = np.array(up, dtype=plan.dtype)
        self._up_offset = np.array(up_offset, dtype=np.int64)

    @staticmethod
    def for_stages(layouts: Sequence[ClassLayout]) -> list[Projection]:
        """The plan layout of ``layouts`` (one per stage) and each one's projection."""
        domains: dict[str, set[int]] = {}
        for layout in layouts:
            for name, values in zip(layout.fields, layout.values):
                domains.setdefault(name, set()).update(values)
        plan = ClassLayout(domains)
        return [Projection(plan, layout) for layout in layouts]

    def down(self, codes: np.ndarray) -> np.ndarray:
        """Plan classes (rows of ``codes``) as the stage's classes."""
        return self._down[codes[:, self.at] + self._down_offset]

    def up(self, codes: np.ndarray, successors: np.ndarray) -> None:
        """Plan classes ``codes``, in place, after the stage sent them to
        ``successors`` (stage classes, one per row): a field the stage
        holds a wildcard in keeps its plan code, as the stage keeps its
        value."""
        import numpy as np

        codes[:, self.at] = np.where(
            successors != 0, self._up[successors + self._up_offset], codes[:, self.at]
        )


class Residuals:
    """A batch's residuals, each once: what of a packet no class code holds.

    A column of a batch is a class plus a residual id into this table
    (:class:`Columns`); id 0 is the empty residual.  Every ingress of a
    network model has one and the same residual, so the table stays small.
    """

    __slots__ = ("items", "fields", "_ids")

    def __init__(self):
        #: Per id, the residual's sorted ``(field, value)`` pairs.
        self.items: list[tuple[tuple[str, int], ...]] = [()]
        #: Every field some residual holds a value of.
        self.fields: set[str] = set()
        self._ids = {(): 0}

    def id_of(self, items: tuple[tuple[str, int], ...]) -> int:
        """The id of the residual holding ``items`` (sorted), added if new."""
        found = self._ids.get(items)
        if found is None:
            found = self._ids[items] = len(self.items)
            self.items.append(items)
            self.fields.update(name for name, _ in items)
        return found

    def without(self, residual: int, names: set[str]) -> int:
        """The id of residual ``residual`` less the fields ``names``."""
        return self.id_of(tuple(item for item in self.items[residual] if item[0] not in names))


class Columns:
    """A batch's outcome columns over a plan's layout: a class and a residual each, or drop.

    Row ``i`` of ``codes`` is column ``i``'s class; ``residual[i]`` its
    residual's id in ``residuals``.  A column stands for the packet its
    residual and its class's concrete fields make, and each packet is one
    column: a residual holds no field the class holds concretely, and no
    value the layout has a code for.  :meth:`decode` turns them into
    packets (or :data:`DROP`).
    """

    __slots__ = ("layout", "codes", "drop", "residual", "residuals")

    def __init__(
        self,
        layout: ClassLayout,
        codes: np.ndarray,
        drop: np.ndarray,
        residual: np.ndarray,
        residuals: Residuals,
    ):
        self.layout = layout
        self.codes = codes
        self.drop = drop
        self.residual = residual
        self.residuals = residuals

    @classmethod
    def classify(cls, packets: Sequence[Packet], layout: ClassLayout) -> Columns:
        """Each of ``packets`` as a column over ``layout`` (classified once)."""
        import numpy as np

        residuals = Residuals()
        classes, ids = [], []
        for packet in packets:
            codes, residual = layout.classify(packet)
            classes.append(codes)
            ids.append(residuals.id_of(residual))
        return cls(
            layout,
            layout.array(classes),
            np.zeros(len(classes), dtype=bool),
            np.array(ids, dtype=np.int64),
            residuals,
        )

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> list[Packet | object]:
        """Every column as its packet (or :data:`DROP`), in order."""
        packets: list[Packet | object] = []
        for codes, dropped, residual in zip(
            self.codes.tolist(), self.drop.tolist(), self.residual.tolist()
        ):
            if dropped:
                packets.append(DROP)
                continue
            merged = dict(self.residuals.items[residual])
            merged.update(self.layout.assignments(codes))
            packets.append(Packet._from_sorted_items(tuple(sorted(merged.items()))))
        return packets

    def follow(
        self, projection: Projection, stage: np.ndarray, rows: ClassRows, found: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Columns]:
        """One stage: column ``i``, of class ``stage[i]`` over the stage's
        layout (``projection.down`` of its own), goes where row ``found[i]``
        of the stage's ``rows`` sends it.

        Returns the stage's CSR buffers ``(indptr, indices, probs)`` over
        the next columns, and those columns: each distinct outcome (class,
        residual) once, in the order the entries first reach it.  An
        outcome class is the stage's outcome on the stage's fields where
        that is concrete, and the column's class elsewhere; it keeps the
        column's residual, less the fields the stage wrote a concrete
        value into.
        """
        import numpy as np

        counts, at = rows.entries(found)
        outcomes = rows.outcomes[at]
        owner = np.arange(len(counts)).repeat(counts)
        # Where a column's stage class is concrete, so is every outcome of
        # its row: an outcome is fixed by the stage outcome and what the
        # column holds elsewhere (its kind).  Lift each (outcome, kind)
        # once, not each entry, then merge the lifts that coincide.
        rest = self.codes.copy()
        rest[:, projection.at] *= stage == 0
        kind, _ = group_rows(self.layout.keys(rest), self.residual)
        pair, first = group_rows(outcomes * (len(kind) + 1) + kind[owner], None)
        drop = outcomes[first] == 0
        codes, residual = self._lift(projection, rows.codes[outcomes[first]], owner[first])
        codes[drop] = 0
        keys = self.layout.keys(codes)
        keys[drop] = self.layout.drop_key
        residual[drop] = 0
        merged, once = group_rows(keys, residual)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        counts.cumsum(out=indptr[1:])
        follows = Columns(self.layout, codes[once], drop[once], residual[once], self.residuals)
        return indptr, merged[pair], rows.probs[at], follows

    def _lift(
        self, projection: Projection, stage: np.ndarray, owner: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per stage outcome ``stage[j]`` reached from column ``owner[j]``,
        its class over the plan's layout and its residual."""
        import numpy as np

        codes = self.codes[owner]
        residual = self.residual[owner]
        if not self.residuals.fields.isdisjoint(projection.stage.position):
            # A value written into a wildcard the residual holds leaves it.
            written = (stage != 0) & (codes[:, projection.at] == 0)
            wrote = np.unique(written.nonzero()[0])
            if len(wrote):
                written = written[wrote]
                layout = projection.stage
                group, first = group_rows(
                    layout.keys(written.astype(layout.dtype)), residual[wrote]
                )
                fields = np.array(layout.fields)
                stripped = [
                    self.residuals.without(
                        int(residual[wrote[k]]), set(fields[written[k]].tolist())
                    )
                    for k in first.tolist()
                ]
                residual[wrote] = np.array(stripped, dtype=np.int64)[group]
        projection.up(codes, stage)
        return codes, residual


def group_rows(keys: np.ndarray, residual: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by (key, residual), numbered in the order they first occur.

    Returns each row's group and each group's first row.  One stable sort
    by key (and residual, unless ``None``: one for every row): a group's
    first row in sorted order is the first in row order.
    """
    import numpy as np

    if keys.dtype.kind == "V":  # a key of several words: number them first
        keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    if residual is None:
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    else:
        order = np.lexsort((residual, keys))
        ranked, ranked_residual = keys[order], residual[order]
        np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
        fresh[1:] |= ranked_residual[1:] != ranked_residual[:-1]
    first = order[fresh]
    by_first = first.argsort()
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = rank[fresh.cumsum() - 1]
    return group, first[by_first]
