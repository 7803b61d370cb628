"""Network topologies: switches, hosts, ports, and links.

A :class:`Topology` is an undirected multigraph of switches and hosts in
which every link endpoint is assigned a local port number, mirroring how
McNetKAT ingests Graphviz topology descriptions.  The class can generate
the ProbNetKAT *topology program* ``t`` (§2): a cascade of conditionals
that matches packets at the source end of each link and moves them to the
destination end, optionally guarded by link-health flags (``up_i``) for
links that may fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from repro.core import syntax as s

if TYPE_CHECKING:  # networkx is imported only by the callers that ask for a graph
    import networkx as nx

Node = Hashable


@dataclass(frozen=True)
class Port:
    """One directed link endpoint: ``(node, port) -> (peer, peer_port)``."""

    node: Node
    port: int
    peer: Node
    peer_port: int


class Topology:
    """A switch/host topology with numbered ports.

    Parameters
    ----------
    name:
        Human-readable name (used in DOT/GML output and benchmark labels).
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        # node -> attributes ("kind" among them), in insertion order
        self._nodes: dict[Node, dict] = {}
        # node -> {neighbour: link attributes}; both ends share one dict
        self._adjacency: dict[Node, dict[Node, dict]] = {}
        # node -> {port: peer node} and node -> {port: peer's port}: every
        # directed link endpoint, indexed by the node it leaves
        self._node_ports: dict[Node, dict[int, Node]] = {}
        self._peer_ports: dict[Node, dict[int, int]] = {}
        self._next_port: dict[Node, int] = {}

    # -- construction ------------------------------------------------------------
    def _add_node(self, node: Node, kind: str, attrs: dict) -> None:
        self._nodes.setdefault(node, {}).update(attrs, kind=kind)
        self._adjacency.setdefault(node, {})
        self._node_ports.setdefault(node, {})
        self._peer_ports.setdefault(node, {})

    def add_switch(self, switch: Node, **attrs) -> None:
        """Add a switch node (attributes: level, pod, index, subtree type...)."""
        self._add_node(switch, "switch", attrs)

    def add_host(self, host: Node, **attrs) -> None:
        """Add a host (end-point) node."""
        self._add_node(host, "host", attrs)

    def add_link(
        self,
        a: Node,
        b: Node,
        port_a: int | None = None,
        port_b: int | None = None,
        **attrs,
    ) -> tuple[int, int]:
        """Add a bidirectional link, allocating port numbers when omitted."""
        if a not in self._nodes or b not in self._nodes:
            raise KeyError("both endpoints must be added before linking them")
        next_port = self._next_port
        if port_a is None:
            port_a = next_port.get(a, 1)
            next_port[a] = port_a + 1
        if port_b is None:  # after a's: a self-loop gets two ports
            port_b = next_port.get(b, 1)
            next_port[b] = port_b + 1
        ports_a, ports_b = self._node_ports[a], self._node_ports[b]
        if port_a in ports_a or port_b in ports_b:
            raise ValueError(f"port already in use on link {a}:{port_a} -- {b}:{port_b}")
        link = self._adjacency[a].setdefault(b, {})
        link.update(attrs, ports={a: port_a, b: port_b})
        self._adjacency[b][a] = link
        ports_a[port_a] = b
        self._peer_ports[a][port_a] = port_b
        ports_b[port_b] = a
        self._peer_ports[b][port_b] = port_a
        if next_port.get(a, 1) <= port_a:
            next_port[a] = port_a + 1
        if next_port.get(b, 1) <= port_b:
            next_port[b] = port_b + 1
        return port_a, port_b

    # -- queries -------------------------------------------------------------------
    def is_switch(self, node: Node) -> bool:
        return self._nodes[node].get("kind") == "switch"

    def is_host(self, node: Node) -> bool:
        return self._nodes[node].get("kind") == "host"

    def nodes(self) -> list[Node]:
        """Every node, switches and hosts, in the order they were added."""
        return list(self._nodes)

    def switches(self) -> list[Node]:
        return [n for n, data in self._nodes.items() if data.get("kind") == "switch"]

    def hosts(self) -> list[Node]:
        return [n for n, data in self._nodes.items() if data.get("kind") == "host"]

    def attributes(self, node: Node) -> dict:
        return dict(self._nodes[node])

    def link_attributes(self, a: Node, b: Node) -> dict:
        """Attributes of the link between ``a`` and ``b`` (``ports`` among them)."""
        return dict(self._adjacency[a][b])

    def neighbors(self, node: Node) -> list[Node]:
        return list(self._adjacency[node])

    def degree(self, node: Node) -> int:
        peers = self._adjacency[node]
        return len(peers) + (node in peers)  # a self-loop has two ends here

    def port_to(self, a: Node, b: Node) -> int:
        """The local port number at ``a`` of the link towards ``b``."""
        return self._adjacency[a][b]["ports"][a]

    def peer(self, node: Node, port: int) -> tuple[Node, int]:
        """The remote end ``(peer, peer_port)`` of a local ``(node, port)``."""
        return self._node_ports[node][port], self._peer_ports[node][port]

    def ports(self, node: Node) -> dict[int, Node]:
        """All occupied ports of a node, mapping port number to neighbour."""
        return dict(self._node_ports.get(node, ()))

    def directed_links(self) -> Iterator[Port]:
        """All directed link endpoints (each undirected link appears twice)."""
        ends = [
            (str(node), port, node)
            for node, ports in self._node_ports.items()
            for port in ports
        ]
        ends.sort(key=lambda end: end[:2])
        for _, port, node in ends:
            yield Port(node, port, *self.peer(node, port))

    def switch_links(self) -> Iterator[Port]:
        """Directed links whose both endpoints are switches."""
        for link in self.directed_links():
            if self.is_switch(link.node) and self.is_switch(link.peer):
                yield link

    @property
    def graph(self) -> "nx.Graph":
        """The topology as a new ``networkx.Graph``, for callers that want one.

        Nodes and links carry their attributes.  Nothing in this package
        needs a graph object — adjacency and node kinds live in plain
        dicts — so networkx is imported here, on request, not with the
        package.
        """
        import networkx as nx

        graph = nx.Graph(name=self.name)
        graph.add_nodes_from(self._nodes.items())
        for node, peers in self._adjacency.items():
            graph.add_edges_from((node, peer, link) for peer, link in peers.items())
        return graph

    def switch_graph(self) -> "nx.Graph":
        """The switch-only subgraph (hosts removed), as a ``networkx.Graph``."""
        return self.graph.subgraph(self.switches()).copy()

    def link_count(self) -> int:
        return sum(map(self.degree, self._nodes)) // 2

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={len(self.switches())}, "
            f"hosts={len(self.hosts())}, links={self.link_count()})"
        )

    # -- ProbNetKAT program generation ------------------------------------------------
    def program(
        self,
        failable: Mapping[Node, Iterable[int]] | None = None,
        sw_field: str = "sw",
        pt_field: str = "pt",
        up_prefix: str = "up",
    ) -> s.Policy:
        """The topology program ``t`` (or ``t̂`` when ``failable`` is given).

        For each directed switch-to-switch link ``(a, pa) -> (b, pb)`` the
        program contains the rule ``if sw=a ; pt=pa then sw<-b ; pt<-pb``.
        Links listed in ``failable`` additionally require ``up<pa> = 1``,
        so packets sent over a failed link are dropped — exactly the
        behaviour of ``t̂`` in §2.  The rules are organised as a ``case``
        over the switch field (with a nested ``case`` over the port field)
        so the forward interpreter can dispatch in constant time.
        """
        failable = {node: set(ports) for node, ports in (failable or {}).items()}
        ordered = sorted(self.switches(), key=str)
        switches = set(ordered)
        switch_branches: list[tuple[s.Predicate, s.Policy]] = []
        # Each switch's own port map, not switch_links(): that sorts every
        # (node, port) of the topology by str for the one switch it serves.
        for node in ordered:
            ports, peer_ports = self._node_ports[node], self._peer_ports[node]
            guarded = failable.get(node, ())
            port_branches: list[tuple[s.Predicate, s.Policy]] = []
            for port in sorted(ports):
                peer = ports[port]
                if peer not in switches:
                    continue
                peer_port = peer_ports[port]
                # s.seq of two assignments, without its flattening checks
                move = s.Seq(
                    (s.assign(sw_field, self._switch_id(peer)), s.assign(pt_field, peer_port))
                )
                if port in guarded:  # guarded by link health
                    rule: s.Policy = s.ite(s.test(f"{up_prefix}{port}", 1), move, s.drop())
                else:
                    rule = move
                port_branches.append((s.test(pt_field, port), rule))
            if port_branches:
                switch_branches.append(
                    (s.test(sw_field, self._switch_id(node)), s.case(port_branches, s.drop()))
                )
        return s.case(switch_branches, s.drop())

    def _switch_id(self, node: Node) -> int:
        if not isinstance(node, int):
            raise TypeError(
                f"switch identifiers must be integers for program generation, got {node!r}"
            )
        return node

    # -- ingress/egress helpers -----------------------------------------------------
    def host_facing_ports(self, switch: Node) -> list[int]:
        """Ports of a switch that connect to hosts."""
        return sorted(
            port for port, peer in self.ports(switch).items() if self.is_host(peer)
        )

    def ingress_locations(self, exclude: Iterable[Node] = ()) -> list[tuple[Node, int]]:
        """All (switch, host-facing port) pairs, excluding the given switches."""
        excluded = set(exclude)
        locations = []
        for switch in sorted(self.switches(), key=str):
            if switch in excluded:
                continue
            for port in self.host_facing_ports(switch):
                locations.append((switch, port))
        return locations
