"""The chain-of-diamonds topology from the Bayonet comparison (§6, Figure 9).

The topology consists of ``k`` "diamonds" in a row.  Diamond ``i`` has
four switches ``S0..S3`` (numbered ``4i+1 .. 4i+4`` here): ``S0`` splits
traffic between ``S1`` and ``S2``, both forward to ``S3``, and ``S3``
feeds the next diamond.  Host ``H1`` attaches before the first diamond
and ``H2`` after the last.  In every diamond the link ``S2 -- S3`` may
fail with probability ``pfail``; ``S2`` drops the packet when it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core import syntax as s
from repro.topology.graph import Topology


def chain_topology(diamonds: int, with_hosts: bool = True) -> Topology:
    """Build the chain topology with the given number of diamonds."""
    if diamonds < 1:
        raise ValueError("the chain needs at least one diamond")
    topo = Topology(name=f"chain-{diamonds}")
    for i in range(diamonds):
        base = 4 * i
        for offset, role in ((1, "split"), (2, "upper"), (3, "lower"), (4, "join")):
            topo.add_switch(base + offset, level="chain", diamond=i, role=role)
    for i in range(diamonds):
        base = 4 * i
        s0, s1, s2, s3 = base + 1, base + 2, base + 3, base + 4
        topo.add_link(s0, s1)
        topo.add_link(s0, s2)
        topo.add_link(s1, s3)
        topo.add_link(s2, s3, failable=True)
        if i + 1 < diamonds:
            topo.add_link(s3, 4 * (i + 1) + 1)
    if with_hosts:
        topo.add_host("H1")
        topo.add_host("H2")
        topo.add_link(1, "H1")
        topo.add_link(4 * diamonds, "H2")
    return topo


@dataclass
class ChainModel:
    """A fully assembled ProbNetKAT model of the chain network.

    Attributes
    ----------
    policy:
        The complete model ``in ; (f;p;t) ; while ¬out do (f;p;t)``.
    ingress:
        The packet injected at H1's switch.
    delivered:
        Predicate satisfied exactly by packets that reached H2's switch.
    """

    topology: Topology
    policy: s.Policy
    ingress: "object"
    delivered: s.Predicate
    diamonds: int
    pfail: Fraction


def chain_model(diamonds: int, pfail: float | Fraction = Fraction(1, 1000)) -> ChainModel:
    """Build the ProbNetKAT model used in the Figure 10 benchmark.

    The forwarding policy mirrors the Bayonet example: the split switch
    forwards to the upper or lower path with probability 1/2 each, the
    lower switch drops the packet when its link to the join switch is
    down, and the join switch forwards into the next diamond (or delivers
    to H2 at the end of the chain).
    """
    from repro.core.packet import Packet
    from repro.failure.models import failure_program
    from repro.network.model import build_model

    topo = chain_topology(diamonds)
    pfail = s.as_prob(pfail)
    dest = 4 * diamonds  # the final join switch (connected to H2)

    branches: list[tuple[s.Predicate, s.Policy]] = []
    for switch in sorted(topo.switches()):
        role = topo.attributes(switch)["role"]
        ports = topo.ports(switch)
        if switch == dest:
            continue  # the loop exits at the destination switch
        if role == "split":
            upper = next(p for p, peer in ports.items() if topo.is_switch(peer)
                         and topo.attributes(peer)["role"] == "upper")
            lower = next(p for p, peer in ports.items() if topo.is_switch(peer)
                         and topo.attributes(peer)["role"] == "lower")
            action = s.uniform(s.assign("pt", upper), s.assign("pt", lower))
        elif role in ("upper", "lower"):
            join = next(p for p, peer in ports.items() if topo.is_switch(peer)
                        and topo.attributes(peer)["role"] == "join")
            action = s.assign("pt", join)
        else:  # join switch forwarding into the next diamond
            nxt = next(p for p, peer in ports.items() if topo.is_switch(peer)
                       and topo.attributes(peer)["role"] == "split"
                       and topo.attributes(peer)["diamond"]
                       == topo.attributes(switch)["diamond"] + 1)
            action = s.assign("pt", nxt)
        branches.append((s.test("sw", switch), action))
    policy = s.case(branches, s.drop())

    # Only the lower-path links (S2 -- S3) can fail.
    failable = {}
    for link in topo.switch_links():
        if topo.link_attributes(link.node, link.peer).get("failable") and \
                topo.attributes(link.node)["role"] == "lower":
            failable.setdefault(link.node, []).append(link.port)
    failure = failure_program(failable, probability=pfail)

    ingress_port = topo.port_to(1, "H1")
    model = build_model(
        topo,
        routing=policy,
        dest=dest,
        failure=failure,
        failable=failable,
        ingress=[(1, ingress_port)],
    )
    return ChainModel(
        topology=topo,
        policy=model.policy,
        ingress=Packet({"sw": 1, "pt": ingress_port}),
        delivered=model.delivered,
        diamonds=diamonds,
        pfail=pfail,
    )
