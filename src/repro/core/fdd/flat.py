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
are how a chain tells new classes from known ones.

Import rule: numpy is imported inside the functions that build or walk
arrays.  A layout that only classifies packets and decodes codes never
loads it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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

    __slots__ = ("fields", "values", "position", "code", "_coded", "_radix")

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

    @property
    def domains(self) -> dict[str, tuple[int, ...]]:
        return dict(zip(self.fields, self.values))

    @property
    def dtype(self):
        """The numpy integer type of a code: 16 bits unless a field has
        more than 32 766 values."""
        import numpy as np

        return np.int16 if max(map(len, self.values), default=0) < 2**15 - 1 else np.int32

    def array(self, classes: Sequence[Codes]) -> np.ndarray:
        """``classes`` as one ``len × fields`` array of codes."""
        import numpy as np

        return np.array(classes, dtype=self.dtype).reshape(len(classes), len(self.fields))

    @property
    def words(self) -> int:
        """How many int64 words a key takes."""
        return self._radices().shape[1]

    def classify(self, packet: Packet) -> tuple[Codes, Packet]:
        """The class of ``packet`` and its residual: the pairs no code holds
        (fields outside the layout, values outside a field's domain)."""
        codes = [0] * len(self.fields)
        residual = []
        coded = self._coded.get
        for item in packet.items():
            found = coded(item)
            if found is None:
                residual.append(item)
            else:
                codes[found >> 32] = found & 0xFFFFFFFF
        return tuple(codes), Packet._from_sorted_items(tuple(residual))

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
        import numpy as np

        words = codes @ self._radices()
        if words.shape[1] == 1:
            return words[:, 0]
        return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1]))).ravel()


class FlatDiagram:
    """A diagram over one :class:`ClassLayout`, as arrays (module docstring).

    Chains are numbered from 0 in discovery order; a child is a chain
    number or ``-1 - leaf``.  ``jump[offset[c] + code]`` is chain ``c``'s
    child for ``code`` in field ``field[c]``; a chain on a field outside
    the layout is skipped (every class takes its fall-through).  A
    diagram that writes a value the layout has no code for is refused.
    """

    __slots__ = (
        "layout", "leaves", "root", "_field", "_offset", "_jump",
        "_first", "_count", "_collide", "_drop", "_mask", "_written", "_prob", "_truth",
    )

    def __init__(self, node: FddNode, layout: ClassLayout):
        import numpy as np

        self.layout = layout
        position = layout.position
        ids: dict[int, int] = {}
        chains: list[Branch] = []
        leaves: list[Leaf] = []

        def ident(current: FddNode) -> int:
            while type(current) is Branch and current.field not in position:
                current = chain_table(current)[1]
            got = ids.get(current.uid)
            if got is None:
                if type(current) is Branch:
                    got = len(chains)
                    chains.append(current)
                else:
                    got = -1 - len(leaves)
                    leaves.append(current)
                ids[current.uid] = got
            return got

        self.root = ident(node)
        field, offset, jump = [], [], []
        cursor = 0
        while cursor < len(chains):  # ident() appends what it discovers
            chain = chains[cursor]
            cursor += 1
            at = position[chain.field]
            table, rest = chain_table(chain)
            default = ident(rest)
            field.append(at)
            offset.append(len(jump))
            jump.append(default)
            for value in layout.values[at]:
                child = table.get(value)
                jump.append(default if child is None else ident(child))
        self.leaves = leaves
        self._field = np.array(field, dtype=np.int64)
        self._offset = np.array(offset, dtype=np.int64)
        self._jump = np.array(jump, dtype=np.int64)

        actions = [pair for leaf in leaves for pair in leaf.dist.items()]
        count = [len(leaf.dist) for leaf in leaves]
        self._count = np.array(count, dtype=np.int64)
        self._first = np.cumsum(self._count) - self._count
        self._prob = np.array([float(prob) for _, prob in actions], dtype=np.float64)
        self._drop = np.array([action is DROP for action, _ in actions], dtype=bool)
        mods = [() if action is DROP else action.mods for action, _ in actions]
        self._mask = np.zeros((len(actions), len(layout.fields)), dtype=bool)
        self._written = np.zeros((len(actions), len(layout.fields)), dtype=layout.dtype)
        coded = layout._coded
        # In blocks of actions: one int per written field would be the
        # largest array of a flattening.
        for start in range(0, len(mods), _ACTIONS_PER_BLOCK):
            block = mods[start : start + _ACTIONS_PER_BLOCK]
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
            self._mask[owner, hits >> 32] = True
            self._written[owner, hits >> 32] = hits & 0xFFFFFFFF
        self._collide = np.zeros(len(leaves), dtype=bool)
        for leaf in np.flatnonzero(_mixed_writes(self._mask, self._drop, self._count)).tolist():
            first = int(self._first[leaf])
            self._collide[leaf] = _may_collide(mods[first : first + count[leaf]])
        self._truth: np.ndarray | None = None

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
