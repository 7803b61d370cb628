"""All-shortest-path next-hop computation on the switch graph."""

from __future__ import annotations

from repro.topology.graph import Topology


def distances_to(topology: Topology, dest: int) -> dict[int, int]:
    """Hop distance from every switch to ``dest`` (unreachable switches omitted).

    A breadth-first search over the switches' adjacency; hosts relay nothing.
    """
    switches = set(topology.switches())
    if dest not in switches:
        raise KeyError(f"destination switch {dest!r} is not in the topology")
    distance = {dest: 0}
    frontier = [dest]
    while frontier:
        reached = []
        for node in frontier:
            for peer in topology.neighbors(node):
                if peer not in distance and peer in switches:
                    distance[peer] = distance[node] + 1
                    reached.append(peer)
        frontier = reached
    return distance


def shortest_path_ports(topology: Topology, dest: int) -> dict[int, list[int]]:
    """For every switch, the local ports that lie on a shortest path to ``dest``.

    A port qualifies when its peer switch is strictly closer to the
    destination.  The destination itself maps to an empty list.
    """
    distance = distances_to(topology, dest)
    result: dict[int, list[int]] = {}
    for switch in topology.switches():
        if switch not in distance:
            result[switch] = []
            continue
        # Only a switch is at a distance: hosts relay nothing.
        closer = distance[switch] - 1
        ports = topology.ports(switch)
        result[switch] = [port for port in sorted(ports) if distance.get(ports[port]) == closer]
    return result
