"""Batched query answers: one ingress × outcome matrix per call.

The paper answers every ingress of a model from one factorization: an
ingress's output distribution is a row of the absorption matrix.  An
:class:`Answer` keeps a batch in that shape.  Row ``i`` of a CSR matrix
is ingress ``ingresses[i]``'s output distribution over the answer's
outcome table, ``outcomes``.  That table holds each outcome packet (and
:data:`~repro.core.packet.DROP`) once per batch, however many ingresses
reach it.

Readers stay on the arrays.  A predicate is evaluated once per outcome
column (:meth:`Answer.mask`), and the mass it holds on is a row
reduction (:meth:`Answer.masses`).  :func:`delivered_mass` is the one
definition of "delivered mass" every query path uses.  A
:class:`~repro.core.distributions.Dist` is built only for a caller that
asks for one, once per row.

Import rule: numpy is imported inside the methods that build or reduce
the arrays, never at module level (annotations import it under
``TYPE_CHECKING``), so :func:`delivered_mass` on a plain ``Dist`` (what
the interpreter and the exact verdicts read) never loads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.interpreter import Outcome, eval_predicate
from repro.core.packet import DROP, Packet

if TYPE_CHECKING:
    import numpy as np

#: What "delivered" may be given as: a predicate AST or a packet callable.
Predicate = s.Predicate | Callable[[Packet], bool]

_ONE = Fraction(1)


def holds(predicate: Predicate, outcome: Outcome) -> bool:
    """Whether ``outcome`` is a packet ``predicate`` holds on (never drop)."""
    if outcome is DROP:
        return False
    if isinstance(predicate, s.Predicate):
        return eval_predicate(predicate, outcome)
    return bool(predicate(outcome))


class Answer(Mapping):
    """Per-ingress output distributions as one sparse ingress × outcome matrix.

    ``indptr`` / ``indices`` / ``data`` are the CSR buffers: row ``i``
    puts mass ``data[k]`` on ``outcomes[indices[k]]`` for ``k`` in
    ``indptr[i]:indptr[i + 1]``.  Masses are float64, or exact
    ``Fraction`` objects when nothing in the plan floated them.  As a
    ``Mapping`` from ingress packet to :class:`Dist` it is what every
    ``output_distributions`` returns; each ``Dist`` is built on first
    access.  ``decoded`` counts the outcome packets decoded from (class,
    residual) columns: after a plan's last stage only, one per distinct
    outcome column, never one per ingress.  Between a plan's stages the
    ``outcomes`` are the batch's still-undecoded
    :class:`~repro.core.fdd.flat.Columns`, of which the next step reads
    only the count.
    """

    __slots__ = (
        "ingresses", "outcomes", "indptr", "indices", "data", "decoded",
        "_identity", "_rows", "_dists", "_masks", "_masses",
    )

    def __init__(
        self,
        ingresses: Sequence[Packet],
        outcomes: Sequence[Outcome],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        decoded: int = 0,
        rows: dict[Packet, int] | None = None,
    ):
        self.ingresses = ingresses
        self.outcomes = outcomes
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.decoded = decoded
        self._identity = False
        # Ingress -> row; an answer built from another shares its table.
        self._rows = {packet: i for i, packet in enumerate(ingresses)} if rows is None else rows
        self._dists: dict[int, Dist] = {}
        self._masks: dict[int, tuple[Predicate, np.ndarray]] = {}
        self._masses: dict[int, tuple[Predicate, list]] = {}

    @classmethod
    def identity(cls, packets: Sequence[Packet]) -> "Answer":
        """Every distinct packet onto itself with mass one: where a plan starts."""
        import numpy as np

        distinct = list(dict.fromkeys(packets))
        n = len(distinct)
        answer = cls(
            distinct, distinct, np.arange(n + 1), np.arange(n), np.array([_ONE] * n, dtype=object)
        )
        answer._identity = True
        return answer

    @classmethod
    def from_distributions(cls, dists: Mapping[Packet, Dist]) -> "Answer":
        """The answer holding ``dists`` (an engine that returns ``Dist`` per packet).

        The given distributions are the answer's own: :meth:`dist` hands
        back the very objects.
        """
        if isinstance(dists, Answer):
            return dists
        import numpy as np

        column: dict[Outcome, int] = {}
        indptr, indices, data = [0], [], []
        for dist in dists.values():
            for outcome, mass in dist.items():
                indices.append(column.setdefault(outcome, len(column)))
                data.append(mass)
            indptr.append(len(indices))
        exact = any(type(mass) is not float for mass in data)
        answer = cls(
            list(dists),
            list(column),
            np.array(indptr),
            np.array(indices, dtype=np.int64),
            np.array(data, dtype=object if exact else np.float64),
        )
        answer._dists = dict(enumerate(dists.values()))
        return answer

    def then(
        self,
        outcomes: Sequence[Outcome],
        indptr: Sequence[int],
        indices: Sequence[int],
        data: Sequence[Fraction | float],
        decoded: int = 0,
    ) -> "Answer":
        """This answer followed by one step over its outcome columns.

        Row ``c`` of the step (``indptr[c]:indptr[c + 1]``) is where the
        mass on column ``c`` goes, over the step's ``outcomes``.  The new
        rows are one sparse product, each row's outcomes in the order they
        first occur and each mass summed in entry order, as a per-ingress
        dict merge would have them.  After :meth:`identity` the step's
        rows are the answer's, as they are (exact masses stay exact).
        """
        import numpy as np

        step_ptr = np.asarray(indptr)
        step_columns = np.asarray(indices, dtype=np.int64)
        step = np.asarray(data)
        if self._identity:
            return Answer(
                self.ingresses, outcomes, step_ptr, step_columns, step, decoded, self._rows
            )
        # Entry k of this answer (row r, column c, mass m) spreads m over step row c.
        starts = step_ptr[self.indices]
        spread = step_ptr[self.indices + 1] - starts
        ends = np.cumsum(spread)
        at = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - spread - starts, spread)
        n, width = len(self.ingresses), max(len(outcomes), 1)
        rows = np.repeat(np.repeat(np.arange(n), np.diff(self.indptr)), spread)
        masses = np.repeat(self.data, spread) * step[at]
        keys, first, merged = np.unique(
            rows * width + step_columns[at], return_index=True, return_inverse=True
        )
        sums = np.bincount(merged, weights=masses, minlength=len(keys))
        order = np.argsort(first, kind="stable")
        order = order[sums[order] > 0]  # an underflowed product is no outcome
        keys = keys[order]
        return Answer(
            self.ingresses,
            outcomes,
            np.concatenate(([0], np.cumsum(np.bincount(keys // width, minlength=n)))),
            keys % width,
            sums[order],
            decoded,
            self._rows,
        )

    # -- rows -------------------------------------------------------------------
    def row(self, packet: Packet) -> "AnswerRow | None":
        """The row of ``packet``, or ``None`` when it is not an ingress of this answer."""
        index = self._rows.get(packet)
        return None if index is None else AnswerRow(self, index)

    def dist(self, index: int) -> Dist:
        """Row ``index`` as a :class:`Dist`, built on first use."""
        dist = self._dists.get(index)
        if dist is None:
            start, stop = self.indptr[index], self.indptr[index + 1]
            outcomes = self.outcomes
            # Every stored mass is positive: a product drops what cancels to zero.
            dist = self._dists[index] = Dist._from_weights({
                outcomes[column]: mass
                for column, mass in zip(
                    self.indices[start:stop].tolist(), self.data[start:stop].tolist()
                )
            })
        return dist

    def __getitem__(self, packet: Packet) -> Dist:
        return self.dist(self._rows[packet])

    def __contains__(self, packet: object) -> bool:
        return packet in self._rows

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.ingresses)

    def __len__(self) -> int:
        return len(self.ingresses)

    # -- reductions -------------------------------------------------------------
    def mask(self, predicate: Predicate) -> np.ndarray:
        """``predicate`` on every outcome column, evaluated once per column."""
        cached = self._masks.get(id(predicate))
        if cached is None or cached[0] is not predicate:
            import numpy as np

            mask = np.fromiter(
                (holds(predicate, outcome) for outcome in self.outcomes),
                dtype=bool,
                count=len(self.outcomes),
            )
            cached = self._masks[id(predicate)] = (predicate, mask)
        return cached[1]

    def masses(self, predicate: Predicate) -> list[Fraction | float]:
        """Per row, the mass on outcomes ``predicate`` holds on: one row reduction."""
        cached = self._masses.get(id(predicate))
        if cached is None or cached[0] is not predicate:
            keep = self.mask(predicate)[self.indices]
            n = len(self.ingresses)
            if self.data.dtype == object:
                data, indptr = self.data, self.indptr
                values = [
                    sum(data[indptr[i]:indptr[i + 1]][keep[indptr[i]:indptr[i + 1]]], Fraction(0))
                    for i in range(n)
                ]
            else:
                import numpy as np

                rows = np.repeat(np.arange(n), np.diff(self.indptr))
                values = np.bincount(rows[keep], weights=self.data[keep], minlength=n).tolist()
            cached = self._masses[id(predicate)] = (predicate, values)
        return cached[1]


class AnswerRow:
    """One ingress's row of an :class:`Answer` (what a session caches)."""

    __slots__ = ("answer", "index")

    def __init__(self, answer: Answer, index: int):
        self.answer = answer
        self.index = index

    def dist(self) -> Dist:
        """The row as a :class:`Dist` (built once per row)."""
        return self.answer.dist(self.index)

    def items_where(self, predicate: Predicate) -> Iterator[tuple[Packet, Fraction | float]]:
        """The row's ``(outcome, mass)`` pairs whose outcome ``predicate`` holds on."""
        answer = self.answer
        mask = answer.mask(predicate)
        start, stop = answer.indptr[self.index], answer.indptr[self.index + 1]
        for column, mass in zip(
            answer.indices[start:stop].tolist(), answer.data[start:stop].tolist()
        ):
            if mask[column]:
                yield answer.outcomes[column], mass


def delivered_mass(row: AnswerRow | Dist, delivered: Predicate) -> Fraction | float:
    """The mass ``row`` delivers: on packets ``delivered`` holds on.

    The one definition of delivered mass.  On an answer row ``delivered``
    is evaluated once per outcome column of the row's answer and the mass
    is a row reduction, so a batch pays one predicate call per distinct
    outcome; a plain :class:`Dist` is summed where it holds.
    """
    if isinstance(row, Dist):
        return row.prob_of(partial(holds, delivered))
    return row.answer.masses(delivered)[row.index]


__all__ = ["Answer", "AnswerRow", "delivered_mass", "holds"]
