#!/usr/bin/env python3
"""Routing verification on a wide-area topology (Internet Topology Zoo style).

The paper's evaluation uses data-center fabrics, but the library works on
arbitrary topologies.  This example loads the bundled Abilene topology,
routes all traffic towards New York with ECMP, verifies full delivery in
the absence of failures, and exports both a Graphviz description of the
topology and the PRISM source of the model for external tooling.

Run with::

    python examples/wan_topology.py
"""

from __future__ import annotations

from repro.backends.prism import to_prism_source, translate_policy
from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.topology import zoo
from repro.topology.dot import to_dot


def main() -> None:
    topo = zoo.load("abilene")
    city_of = {sw: topo.attributes(sw)["city"] for sw in topo.switches()}
    dest = next(sw for sw, city in city_of.items() if city == "NewYork")

    print(f"Topology: {topo.name} — {len(topo.switches())} switches, {topo.link_count()} links")
    print(f"Destination: switch {dest} ({city_of[dest]})")

    model = build_model(topo, ecmp_policy(topo, dest), dest=dest, count_hops=True)
    print(f"Ingress locations: {len(model.ingress_packets)}")
    print(f"Certain delivery without failures: {model.certainly_delivers()}")

    per_ingress = model.delivery_probabilities()
    worst = min(per_ingress.values())
    print(f"Worst-case per-ingress delivery probability: {worst:.3f}")

    from repro.analysis import expected_hop_count

    print(f"Expected hop count towards {city_of[dest]}: {expected_hop_count(model):.2f}")

    dot_source = to_dot(topo)
    prism_source = to_prism_source(translate_policy(model.policy, delivered=model.delivered))
    print(f"\nGraphviz export: {len(dot_source.splitlines())} lines (topology.dot)")
    print(f"PRISM export   : {len(prism_source.splitlines())} lines (abilene.prism)")
    with open("topology.dot", "w", encoding="utf-8") as handle:
        handle.write(dot_source)
    with open("abilene.prism", "w", encoding="utf-8") as handle:
        handle.write(prism_source)


if __name__ == "__main__":
    main()
