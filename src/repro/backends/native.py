"""The native backend ("PNK" in the paper's plots).

A convenience facade over the FDD compiler and the forward interpreter,
with built-in timing so the benchmark harnesses can report compile and
query times separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core import syntax as s
from repro.core.compiler import Compiler
from repro.core.distributions import Dist
from repro.core.fdd.node import FddManager, FddNode, node_size
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import Packet
from repro.utils.timing import Stopwatch


@dataclass
class NativeBackend:
    """Native McNetKAT-style backend: FDD compilation + forward analysis.

    Parameters
    ----------
    exact:
        Use exact rational arithmetic for loop solving (both in the
        compiler and in the interpreter).
    class_limit:
        Bound on the symbolic-domain size for full compilation.
    """

    exact: bool = False
    class_limit: int = 100_000
    watch: Stopwatch = field(default_factory=Stopwatch)

    def __post_init__(self) -> None:
        self.manager = FddManager()
        self._compiler = Compiler(
            manager=self.manager, exact=self.exact, class_limit=self.class_limit
        )
        # The interpreter shares the backend's compiler, so loop bodies
        # compiled for the fast path intern into the same FDD manager as
        # full compilations.
        self._interpreter = Interpreter(exact=self.exact, compiler=self._compiler)

    # -- full compilation --------------------------------------------------------
    def compile(self, policy: s.Policy) -> FddNode:
        """Compile ``policy`` to its canonical FDD (timed as ``"compile"``)."""
        with self.watch.measure("compile"):
            return self._compiler.compile(policy)

    def fdd_size(self, policy: s.Policy) -> int:
        """Number of distinct nodes in the compiled FDD of ``policy``."""
        return node_size(self.compile(policy))

    # -- forward analysis ----------------------------------------------------------
    def output_distribution(
        self, policy: s.Policy, inputs: Packet | Dist[Outcome] | Iterable[Packet]
    ) -> Dist[Outcome]:
        """Output distribution on a packet, a distribution, or a uniform ingress set."""
        with self.watch.measure("query"):
            if isinstance(inputs, (Packet, Dist)):
                return self._interpreter.run(policy, inputs)
            packets: Sequence[Packet] = list(inputs)
            return self._interpreter.run(policy, Dist.uniform(packets))

    def output_distributions(
        self, policy: s.Policy, inputs: Iterable[Packet]
    ) -> dict[Packet, Dist[Outcome]]:
        """Per-ingress output distributions (shares loop solutions across inputs)."""
        with self.watch.measure("query"):
            return {packet: self._interpreter.run_packet(policy, packet) for packet in inputs}

    def certain_outcomes(self, policy: s.Policy, packet: Packet):
        """Structural possibility analysis (see :meth:`Interpreter.certain_outcomes`)."""
        return self._interpreter.certain_outcomes(policy, packet)

    def certainly_delivers(self, model) -> bool:
        """Whether every ingress of a network model delivers with probability one.

        Delegates to the model's structural possibility analysis, reusing
        this backend's interpreter (and its loop caches).
        """
        return model.certainly_delivers(interpreter=self._interpreter)

    @property
    def interpreter(self) -> Interpreter:
        return self._interpreter

    @property
    def compiler(self) -> Compiler:
        return self._compiler

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock time per phase."""
        return dict(self.watch.sections)
