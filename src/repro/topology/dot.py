"""Reading and writing topologies in Graphviz DOT format.

McNetKAT's frontend generates network models from Graphviz topology
descriptions; this module provides a small, dependency-free DOT
writer/reader for the same purpose (node attribute ``kind`` distinguishes
switches from hosts, edge attributes ``src_port``/``dst_port`` carry the
port numbering).
"""

from __future__ import annotations

import re

from repro.topology.graph import Topology


def to_dot(topo: Topology) -> str:
    """Render a topology as a Graphviz graph with port annotations."""
    lines = [f'graph "{topo.name}" {{']
    for node in sorted(topo.nodes(), key=str):
        attrs = topo.attributes(node)
        kind = attrs.get("kind", "switch")
        extra = "".join(
            f", {key}={value!r}" if isinstance(value, str) else f", {key}={value}"
            for key, value in sorted(attrs.items())
            if key not in ("kind",) and isinstance(value, (int, str))
        )
        lines.append(f'  "{node}" [kind="{kind}"{extra}];')
    seen = set()
    for link in topo.directed_links():
        key = frozenset([(link.node, link.port), (link.peer, link.peer_port)])
        if key in seen:
            continue
        seen.add(key)
        lines.append(
            f'  "{link.node}" -- "{link.peer}" '
            f"[src_port={link.port}, dst_port={link.peer_port}];"
        )
    lines.append("}")
    return "\n".join(lines)


def write_dot(topo: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dot(topo))
        handle.write("\n")


_NODE_RE = re.compile(r'^\s*"(?P<name>[^"]+)"\s*\[(?P<attrs>[^\]]*)\]\s*;\s*$')
_EDGE_RE = re.compile(
    r'^\s*"(?P<a>[^"]+)"\s*--\s*"(?P<b>[^"]+)"\s*\[(?P<attrs>[^\]]*)\]\s*;\s*$'
)
_ATTR_RE = re.compile(r"(?P<key>\w+)\s*=\s*(?P<value>\"[^\"]*\"|'[^']*'|[^,\s]+)")


def _parse_attrs(text: str) -> dict[str, object]:
    attrs: dict[str, object] = {}
    for match in _ATTR_RE.finditer(text):
        key = match.group("key")
        raw = match.group("value").strip("\"'")
        attrs[key] = int(raw) if raw.lstrip("-").isdigit() else raw
    return attrs


def _coerce_node(name: str) -> object:
    return int(name) if name.lstrip("-").isdigit() else name


def from_dot(source: str, name: str = "topology") -> Topology:
    """Parse a topology from the DOT dialect produced by :func:`to_dot`."""
    topo = Topology(name=name)
    edges: list[tuple[object, object, dict[str, object]]] = []
    for line in source.splitlines():
        node_match = _NODE_RE.match(line)
        if node_match:
            attrs = _parse_attrs(node_match.group("attrs"))
            node = _coerce_node(node_match.group("name"))
            kind = attrs.pop("kind", "switch")
            if kind == "host":
                topo.add_host(node, **attrs)
            else:
                topo.add_switch(node, **attrs)
            continue
        edge_match = _EDGE_RE.match(line)
        if edge_match:
            attrs = _parse_attrs(edge_match.group("attrs"))
            edges.append(
                (
                    _coerce_node(edge_match.group("a")),
                    _coerce_node(edge_match.group("b")),
                    attrs,
                )
            )
    for a, b, attrs in edges:
        topo.add_link(
            a,
            b,
            port_a=attrs.get("src_port"),
            port_b=attrs.get("dst_port"),
        )
    return topo
