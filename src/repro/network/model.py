"""Assembling complete network models (§2 and §7).

A network model packages a forwarding policy ``p``, a topology program
``t``, and a failure model ``f`` into the single ProbNetKAT program

    ``M̂(p, t, f) = var up_1 <- 1 in … in ; (f;p;t) ; while ¬out do (f;p;t)``

together with the ingress packets, the teleportation specification, and
the delivered-predicate needed by the analyses.  Link-health flags, the
failure counter, and the detour marker are declared as local variables so
they are erased from the observable output, exactly as in the paper's
desugaring of ``var f <- n in p``.

One deviation from the literal paper model is recorded here explicitly:
the loop body re-initialises the link-health flags after the topology
step.  Because the failure model resamples every flag it reads at the
start of each hop and the egress erasure sets all flags to a canonical
value, this does not change the observable semantics, but it collapses
the loop-head state space from (location × flag-assignment) to just the
packet locations, which is what makes forward exploration scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping, Sequence

from repro.core import sugar
from repro.core import syntax as s
from repro.core.answer import delivered_mass, holds
from repro.core.distributions import Dist
from repro.core.fields import FieldTable
from repro.core.interpreter import Interpreter, Outcome
from repro.core.packet import Packet
from repro.topology.graph import Topology


@dataclass
class NetworkModel:
    """A fully assembled network model and its analysis artefacts.

    Attributes
    ----------
    policy:
        The complete model program ``M̂``.
    teleport:
        The teleportation specification used as the gold standard for
        full delivery (``in ; sw <- dest ; pt <- 0`` under the same local
        declarations).
    ingress_packets:
        One concrete packet per ingress location.
    delivered:
        Predicate satisfied exactly by delivered packets (``sw = dest``).
    body:
        One hop of the model (``f ; p ; t`` plus bookkeeping): the loop
        body, and the unrolled first hop that precedes the loop.
    """

    topology: Topology
    dest: int
    policy: s.Policy
    teleport: s.Policy
    body: s.Policy
    ingress_packets: list[Packet]
    ingress_predicate: s.Predicate
    delivered: s.Predicate
    hops_field: str | None = None
    fields: FieldTable = field(default_factory=FieldTable)

    # -- analyses -------------------------------------------------------------
    def is_delivered(self, outcome: Outcome) -> bool:
        """Whether ``outcome`` is a packet satisfying :attr:`delivered`.

        The model may name its switch field anything; this is
        :func:`~repro.core.answer.holds` on :attr:`delivered`, the reading
        every delivery query shares.
        """
        return holds(self.delivered, outcome)

    def output_distributions(
        self, exact: bool = False, interpreter: Interpreter | None = None
    ) -> dict[Packet, Dist[Outcome]]:
        """Per-ingress output distributions of the model."""
        interp = interpreter if interpreter is not None else Interpreter(exact=exact)
        return interp.output_distributions(self.policy, self.ingress_packets)

    def delivery_probabilities(
        self, exact: bool = False, interpreter: Interpreter | None = None
    ) -> dict[Packet, float]:
        """Per-ingress probability that the packet reaches the destination."""
        outputs = self.output_distributions(exact=exact, interpreter=interpreter)
        # Once per distinct outcome packet, not per ingress x outcome.
        delivered = cache(self.is_delivered)
        return {
            packet: float(delivered_mass(dist, delivered)) for packet, dist in outputs.items()
        }

    def delivery_probability(
        self, exact: bool = False, interpreter: Interpreter | None = None
    ) -> float:
        """Delivery probability averaged uniformly over the ingress set."""
        per_ingress = self.delivery_probabilities(exact=exact, interpreter=interpreter)
        return sum(per_ingress.values()) / len(per_ingress)

    def certainly_delivers(self, interpreter: Interpreter | None = None) -> bool:
        """Whether every ingress packet is delivered with probability one.

        Uses the structural possibility analysis, so the verdict is exact
        (no numerical tolerance involved).
        """
        interp = interpreter if interpreter is not None else Interpreter()
        delivered = cache(self.is_delivered)
        for packet in self.ingress_packets:
            outcomes, may_diverge = interp.certain_outcomes(self.policy, packet)
            if may_diverge or not all(map(delivered, outcomes)):
                return False
        return True


def build_model(
    topology: Topology,
    routing: s.Policy,
    dest: int,
    failure: s.Policy | None = None,
    failable: Mapping[int, Iterable[int]] | None = None,
    ingress: Sequence[tuple[int, int]] | None = None,
    count_hops: bool = False,
    max_hops: int = 16,
    sw_field: str = "sw",
    pt_field: str = "pt",
    up_prefix: str = "up",
    hops_field: str = "hops",
    extra_locals: Sequence[tuple[str, int]] = (),
) -> NetworkModel:
    """Assemble the network model ``M̂(routing, t, failure)``.

    Parameters
    ----------
    topology:
        The network topology; its :meth:`~repro.topology.graph.Topology.program`
        provides the link program ``t``.
    routing:
        The switch policy ``p`` (e.g. ECMP or one of the F10 schemes).
    dest:
        Destination switch; the model's loop runs while ``sw ≠ dest``.
    failure:
        The failure model ``f`` run at each hop (omitted = no failures).
    failable:
        Per-switch failable ports, used to guard the corresponding links
        in the topology program and to reset their health flags.
    ingress:
        Ingress locations as ``(switch, port)`` pairs; defaults to every
        host-facing port except those at the destination switch.
    count_hops:
        Add a saturating hop counter (used by the latency analyses of
        Figure 12(b,c)).
    extra_locals:
        Additional ``(field, initial value)`` local declarations.  Used to
        give structurally different schemes (e.g. F10 with and without the
        detour flag) the same observable field set, so their outputs stay
        directly comparable in refinement checks.
    """
    failable = {node: sorted(ports) for node, ports in (failable or {}).items()}
    link_program = topology.program(
        failable=failable, sw_field=sw_field, pt_field=pt_field, up_prefix=up_prefix
    )
    if ingress is None:
        ingress = topology.ingress_locations(exclude=[dest])
    if not ingress:
        raise ValueError("the model needs at least one ingress location")

    # s.conj of two tests is their And: neither is skip.
    ingress_predicate = s.disj(
        *[s.And(s.test(sw_field, switch), s.test(pt_field, port)) for switch, port in ingress]
    )
    out_predicate = s.test(sw_field, dest)

    pieces: list[s.Policy] = []
    if failure is not None:
        pieces.append(failure)
    pieces.append(routing)
    pieces.append(link_program)

    # Collect the local bookkeeping fields used by the model.  This one
    # walk per piece also serves the field table built below.
    mentioned: dict[str, set[int]] = {}
    for piece in pieces:
        for name, values in piece.field_values().items():
            mentioned.setdefault(name, set()).update(values)
    up_fields = sorted(name for name in mentioned if name.startswith(up_prefix)
                       and name != up_prefix and name[len(up_prefix):].isdigit())
    detour_fields = sorted(name for name in mentioned if name == "detour")
    counter_fields = sorted(name for name in mentioned if name == "fails")

    # Re-initialise flags after each hop so loop-head states depend only on
    # the packet location (see module docstring).
    resets: list[s.Policy] = []
    if up_fields:
        resets.append(sugar.set_all(up_fields, 1))
    if count_hops:
        resets.append(sugar.increment(hops_field, max_hops))
    body = s.seq(*pieces, *resets)

    bindings = [(name, 1) for name in up_fields]
    bindings += [(name, 0) for name in detour_fields]
    bindings += [(name, 0) for name in counter_fields]
    declared = {name for name, _ in bindings}
    bindings += [(name, init) for name, init in extra_locals if name not in declared]

    def around(hop: s.Policy) -> s.Policy:
        """The model program around one hop: ``in ; hop ; while ¬out do hop``."""
        core = s.seq(
            ingress_predicate,
            hop,
            s.while_do(s.neg(out_predicate), hop),
            s.assign(pt_field, 0),
        )
        if count_hops:
            core = s.seq(s.assign(hops_field, 0), core)
        return sugar.locals_in(bindings, core) if bindings else core

    policy = around(body)

    teleport_core = s.seq(ingress_predicate, s.assign(sw_field, dest), s.assign(pt_field, 0))
    teleport = sugar.locals_in(bindings, teleport_core) if bindings else teleport_core

    ingress_packets = [
        Packet({sw_field: switch, pt_field: port}) for switch, port in ingress
    ]

    # The frame around the hop, in the order ``policy`` first mentions its
    # fields: the locals (set, then reset to 0), the hop counter, then the
    # ingress and egress tests and ``pt <- 0``.  The resets mention only
    # up flags and the counter, both declared here; the pieces were
    # walked above.
    table = FieldTable()
    for name, init in bindings:
        table.declare(name, min(0, init), max(0, init))
    if count_hops:
        table.declare(hops_field, 0, max_hops)
    switches = [switch for switch, _ in ingress]
    ports = [port for _, port in ingress]
    table.declare(sw_field, min(0, dest, *switches), max(dest, *switches))
    table.declare(pt_field, min(0, *ports), max(0, *ports))
    for name, values in mentioned.items():
        table.declare(name, min(0, min(values)), max(values))
    return NetworkModel(
        topology=topology,
        dest=dest,
        policy=policy,
        teleport=teleport,
        body=body,
        ingress_packets=ingress_packets,
        ingress_predicate=ingress_predicate,
        delivered=out_predicate,
        hops_field=hops_field if count_hops else None,
        fields=table,
    )
