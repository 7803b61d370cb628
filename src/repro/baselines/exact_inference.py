"""A Bayonet-style general-purpose exact inference baseline.

The paper compares McNetKAT against Bayonet, which translates network
models into a general-purpose probabilistic language analysed by the
symbolic inference engine PSI.  Bayonet's approach does not exploit the
two domain-specific optimisations that make McNetKAT fast:

1. it does not restrict attention to the packets reachable from the
   query's ingress (no dynamic domain reduction / reachability pruning);
2. it has no closed form for loops — iteration is unrolled up to a bound.

This baseline reproduces those two structural properties in a small exact
interpreter: program state is a distribution over the *entire* declared
variable space (every combination of field values is represented, dense),
and ``while`` loops are evaluated by bounded unrolling with a convergence
check.  Absolute running times obviously differ from Bayonet/PSI, but the
scaling behaviour — exponential-state blow-up as the network grows —
matches, which is what the Figure 10 comparison is about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import syntax as s
from repro.core.compiler import GuardedFragmentError
from repro.core.distributions import Dist
from repro.core.fields import FieldTable
from repro.core.interpreter import Outcome
from repro.core.packet import DROP, Packet, PacketUniverse, _DropType

if TYPE_CHECKING:
    import numpy as np


class UnrollLimitExceeded(RuntimeError):
    """Raised when a loop fails to converge within the unrolling bound."""


class ExactInferenceBaseline:
    """Whole-state-space exact inference over guarded ProbNetKAT programs.

    Parameters
    ----------
    unroll_limit:
        Maximum number of loop unrollings before giving up.
    tolerance:
        Convergence threshold on the total-variation distance between
        consecutive unrollings.
    max_states:
        Safety bound on the size of the declared state space (the product
        of all field domains).
    """

    def __init__(
        self,
        unroll_limit: int = 10_000,
        tolerance: float = 1e-12,
        max_states: int = 200_000,
    ):
        self.unroll_limit = unroll_limit
        self.tolerance = tolerance
        self.max_states = max_states
        self._universe: list[Packet] = []
        self._index: dict[Packet, int] = {}

    # -- public API -----------------------------------------------------------
    def output_distribution(
        self,
        policy: s.Policy,
        input_packet: Packet,
        fields: FieldTable | None = None,
    ) -> Dist[Outcome]:
        """Exact output distribution of ``policy`` on ``input_packet``."""
        import numpy as np

        table = fields if fields is not None else self._infer_fields(policy, input_packet)
        universe = PacketUniverse(table.as_domains())
        if universe.size > self.max_states:
            raise MemoryError(
                f"declared state space has {universe.size} packets, "
                f"exceeding the baseline's limit of {self.max_states}"
            )
        self._universe = list(universe.packets)
        self._index = {packet: i for i, packet in enumerate(self._universe)}

        start = self._complete(input_packet, table)
        vector = np.zeros(len(self._universe) + 1)
        vector[self._index[start]] = 1.0
        result = self._run(policy, vector)

        weights: dict[Outcome, float] = {}
        for i, mass in enumerate(result[:-1]):
            if mass > 0.0:
                weights[self._universe[i]] = float(mass)
        if result[-1] > 0.0:
            weights[DROP] = float(result[-1])
        return Dist(weights, check=False)

    def delivery_probability(
        self,
        policy: s.Policy,
        input_packet: Packet,
        delivered: s.Predicate,
        fields: FieldTable | None = None,
    ) -> float:
        """Probability that the output satisfies ``delivered``."""
        from repro.core.interpreter import eval_predicate

        dist = self.output_distribution(policy, input_packet, fields=fields)
        return float(
            dist.prob_of(
                lambda out: not isinstance(out, _DropType) and eval_predicate(delivered, out)
            )
        )

    # -- helpers ----------------------------------------------------------------
    def _infer_fields(self, policy: s.Policy, packet: Packet) -> FieldTable:
        table = FieldTable.from_policy(policy)
        for name, value in packet.items():
            table.declare(name, min(0, value), value)
        return table

    def _complete(self, packet: Packet, table: FieldTable) -> Packet:
        """Extend the input packet with default values for undeclared fields."""
        values = {spec.name: spec.low for spec in table}
        values.update(packet.as_dict())
        return Packet(values)

    # -- dense interpretation --------------------------------------------------------
    def _run(self, policy: s.Policy, vector: np.ndarray) -> np.ndarray:
        """Push a dense state distribution through a policy."""
        if isinstance(policy, s.Predicate):
            return self._filter(policy, vector)
        if isinstance(policy, s.Assign):
            return self._assign(policy.field, policy.value, vector)
        if isinstance(policy, s.Seq):
            for part in policy.parts:
                vector = self._run(part, vector)
            return vector
        if isinstance(policy, s.Choice):
            import numpy as np

            result = np.zeros_like(vector)
            for branch, prob in policy.branches:
                result += float(prob) * self._run(branch, vector.copy())
            return result
        if isinstance(policy, s.IfThenElse):
            mask = self._mask(policy.guard)
            taken = vector * mask
            not_taken = vector * (1.0 - mask)
            return self._run(policy.then, taken) + self._run(policy.otherwise, not_taken)
        if isinstance(policy, s.Case):
            return self._run(s.case_to_ite(policy), vector)
        if isinstance(policy, s.WhileDo):
            return self._run_while(policy, vector)
        if isinstance(policy, (s.Union, s.Star)):
            raise GuardedFragmentError(
                "the exact-inference baseline handles the guarded fragment only"
            )
        raise TypeError(f"unknown policy node {type(policy)!r}")

    def _mask(self, pred: s.Predicate) -> np.ndarray:
        import numpy as np

        from repro.core.interpreter import eval_predicate

        mask = np.zeros(len(self._universe) + 1)
        for i, packet in enumerate(self._universe):
            if eval_predicate(pred, packet):
                mask[i] = 1.0
        return mask

    def _filter(self, pred: s.Predicate, vector: np.ndarray) -> np.ndarray:
        mask = self._mask(pred)
        kept = vector * mask
        dropped = float(vector[:-1].sum() - kept[:-1].sum())
        result = kept
        result[-1] = vector[-1] + dropped
        return result

    def _assign(self, field: str, value: int, vector: np.ndarray) -> np.ndarray:
        import numpy as np

        result = np.zeros_like(vector)
        result[-1] = vector[-1]
        for i, packet in enumerate(self._universe):
            mass = vector[i]
            if mass == 0.0:
                continue
            target = packet.set(field, value)
            result[self._index[target]] += mass
        return result

    def _run_while(self, loop: s.WhileDo, vector: np.ndarray) -> np.ndarray:
        """Bounded unrolling of a while loop (no closed form, like Bayonet)."""
        mask = self._mask(loop.guard)
        settled = vector * (1.0 - mask)
        settled[-1] = vector[-1]
        active = vector * mask
        active[-1] = 0.0
        for _ in range(self.unroll_limit):
            if active[:-1].sum() <= self.tolerance:
                return settled
            stepped = self._run(loop.body, active)
            newly_settled = stepped * (1.0 - mask)
            newly_settled[-1] = stepped[-1]
            settled = settled + newly_settled
            active = stepped * mask
            active[-1] = 0.0
        raise UnrollLimitExceeded(
            f"while loop did not converge within {self.unroll_limit} unrollings"
        )
