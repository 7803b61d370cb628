"""Small real-world topologies in the style of the Internet Topology Zoo.

The Topology Zoo distributes wide-area network topologies as GML files.
This module bundles a few representative ones (Abilene, a simplified
GÉANT, and NSFNet) defined programmatically, plus a minimal GML
reader/writer compatible with Zoo-style files, so that the library can be
exercised on wide-area graphs in addition to data-center fabrics.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.topology.graph import Topology

#: City-level node lists and adjacency for the bundled topologies.
_BUILTIN: dict[str, tuple[Sequence[str], Sequence[tuple[str, str]]]] = {
    "abilene": (
        [
            "Seattle", "Sunnyvale", "LosAngeles", "Denver", "KansasCity",
            "Houston", "Chicago", "Indianapolis", "Atlanta", "WashingtonDC",
            "NewYork",
        ],
        [
            ("Seattle", "Sunnyvale"), ("Seattle", "Denver"),
            ("Sunnyvale", "LosAngeles"), ("Sunnyvale", "Denver"),
            ("LosAngeles", "Houston"), ("Denver", "KansasCity"),
            ("KansasCity", "Houston"), ("KansasCity", "Chicago"),
            ("Houston", "Atlanta"), ("Chicago", "Indianapolis"),
            ("Indianapolis", "Atlanta"), ("Atlanta", "WashingtonDC"),
            ("WashingtonDC", "NewYork"), ("Chicago", "NewYork"),
        ],
    ),
    "nsfnet": (
        [
            "Seattle", "PaloAlto", "SanDiego", "SaltLake", "Boulder",
            "Houston", "Lincoln", "Champaign", "AnnArbor", "Pittsburgh",
            "Atlanta", "CollegePark", "Ithaca", "Princeton",
        ],
        [
            ("Seattle", "PaloAlto"), ("Seattle", "SaltLake"),
            ("PaloAlto", "SanDiego"), ("PaloAlto", "SaltLake"),
            ("SanDiego", "Houston"), ("SaltLake", "Boulder"),
            ("Boulder", "Lincoln"), ("Boulder", "Houston"),
            ("Houston", "Atlanta"), ("Lincoln", "Champaign"),
            ("Champaign", "AnnArbor"), ("Champaign", "Pittsburgh"),
            ("AnnArbor", "Ithaca"), ("Pittsburgh", "Princeton"),
            ("Pittsburgh", "Ithaca"), ("Atlanta", "CollegePark"),
            ("CollegePark", "Princeton"), ("Ithaca", "Princeton"),
        ],
    ),
    "geant-lite": (
        [
            "London", "Paris", "Amsterdam", "Frankfurt", "Geneva",
            "Milan", "Vienna", "Prague", "Madrid", "Budapest",
        ],
        [
            ("London", "Paris"), ("London", "Amsterdam"),
            ("Paris", "Geneva"), ("Paris", "Madrid"),
            ("Amsterdam", "Frankfurt"), ("Frankfurt", "Vienna"),
            ("Frankfurt", "Geneva"), ("Geneva", "Milan"),
            ("Milan", "Vienna"), ("Vienna", "Prague"),
            ("Prague", "Frankfurt"), ("Vienna", "Budapest"),
            ("Madrid", "Milan"),
        ],
    ),
}


def available_topologies() -> list[str]:
    """Names of the bundled Topology-Zoo-style topologies."""
    return sorted(_BUILTIN)


def load(name: str, with_hosts: bool = True) -> Topology:
    """Load a bundled topology by name.

    Every city becomes a switch with an integer identifier (1-based,
    alphabetical by city name, recorded in the ``city`` attribute); when
    ``with_hosts`` is set, each switch gets one attached host so the
    topology can be used directly with the network model builders.
    """
    if name not in _BUILTIN:
        raise KeyError(f"unknown topology {name!r}; available: {available_topologies()}")
    cities, links = _BUILTIN[name]
    ordered = sorted(cities)
    ids = {city: index + 1 for index, city in enumerate(ordered)}
    topo = Topology(name=name)
    for city in ordered:
        topo.add_switch(ids[city], level="wan", city=city)
        if with_hosts:
            host = f"h{ids[city]}"
            topo.add_host(host)
            topo.add_link(ids[city], host)
    for a, b in links:
        topo.add_link(ids[a], ids[b])
    return topo


# ---------------------------------------------------------------------------
# GML import/export (Topology Zoo interchange format)
# ---------------------------------------------------------------------------

def to_gml(topo: Topology) -> str:
    """Render a topology in (minimal) GML, the Topology Zoo format."""
    lines = ["graph [", f'  label "{topo.name}"']
    ids: dict[object, int] = {}
    for index, node in enumerate(sorted(topo.nodes(), key=str)):
        ids[node] = index
        attrs = topo.attributes(node)
        lines.append("  node [")
        lines.append(f"    id {index}")
        lines.append(f'    label "{node}"')
        lines.append(f'    kind "{attrs.get("kind", "switch")}"')
        lines.append("  ]")
    seen = set()
    for link in topo.directed_links():
        key = frozenset([(link.node, link.port), (link.peer, link.peer_port)])
        if key in seen:
            continue
        seen.add(key)
        lines.append("  edge [")
        lines.append(f"    source {ids[link.node]}")
        lines.append(f"    target {ids[link.peer]}")
        lines.append("  ]")
    lines.append("]")
    return "\n".join(lines)


_GML_NODE_RE = re.compile(
    r"node\s*\[\s*id\s+(?P<id>\d+)\s+label\s+\"(?P<label>[^\"]*)\""
    r"(?:\s+kind\s+\"(?P<kind>[^\"]*)\")?",
)
_GML_EDGE_RE = re.compile(r"edge\s*\[\s*source\s+(?P<source>\d+)\s+target\s+(?P<target>\d+)")


def from_gml(source: str, name: str = "topology") -> Topology:
    """Parse a GML topology (as produced by :func:`to_gml` or the Topology Zoo)."""
    topo = Topology(name=name)
    labels: dict[int, object] = {}
    for match in _GML_NODE_RE.finditer(source):
        raw = match.group("label")
        node: object = int(raw) if raw.lstrip("-").isdigit() else raw
        labels[int(match.group("id"))] = node
        if (match.group("kind") or "switch") == "host":
            topo.add_host(node)
        else:
            topo.add_switch(node)
    for match in _GML_EDGE_RE.finditer(source):
        topo.add_link(labels[int(match.group("source"))], labels[int(match.group("target"))])
    return topo
