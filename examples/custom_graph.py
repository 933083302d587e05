#!/usr/bin/env python
"""Bring your own graph: networkx import and persistence.

Shows the integration surface a downstream user cares about:

1. build a keyword-labelled digraph in networkx and convert it;
2. save/load the graph (JSON) and its pre-processed tables (NPZ);
3. query the reloaded graph with its reloaded tables.

Run:  python examples/custom_graph.py
"""

import tempfile
from pathlib import Path

import networkx as nx

from repro.core.engine import KOREngine
from repro.graph.interop import from_networkx
from repro.graph.io import load_json, save_json
from repro.prep.tables import CostTables


def build_networkx_city() -> nx.DiGraph:
    city = nx.DiGraph()
    places = {
        "station": ["transit"],
        "old town": ["cafe", "gallery"],
        "market": ["food", "cafe"],
        "riverside": ["park"],
        "museum": ["gallery", "imax"],
        "brewery": ["pub", "food"],
    }
    for name, keywords in places.items():
        city.add_node(name, keywords=keywords)
    legs = [
        ("station", "old town", 0.8, 0.6),
        ("old town", "market", 0.5, 0.4),
        ("market", "riverside", 1.1, 0.7),
        ("riverside", "museum", 0.9, 0.8),
        ("museum", "brewery", 0.7, 0.5),
        ("brewery", "station", 1.4, 1.0),
        ("old town", "museum", 1.6, 1.1),
        ("market", "brewery", 1.0, 0.9),
    ]
    for u, v, objective, budget in legs:
        city.add_edge(u, v, objective=objective, budget=budget)
        city.add_edge(v, u, objective=objective, budget=budget)
    return city


def main():
    graph, mapping = from_networkx(build_networkx_city())
    print(f"imported: {graph.num_nodes} nodes, {graph.num_edges} arcs")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # Persist the graph and its pre-processing, as a deployment would.
        save_json(graph, tmp / "city.json")
        tables = CostTables.from_graph(graph)
        tables.save(tmp / "city-tables.npz")

        reloaded = load_json(tmp / "city.json")
        reloaded_tables = CostTables.load(tmp / "city-tables.npz")
        print("persisted and reloaded graph + tables")

        engine = KOREngine(reloaded, tables=reloaded_tables)

        source = reloaded.index_of("station")
        result = engine.query(
            source,
            source,
            ["cafe", "gallery", "pub"],
            budget_limit=5.0,
            algorithm="bucketbound",
        )
        if result.feasible:
            print("\nround trip from the station covering cafe, gallery, pub:")
            print(" ", result.route.describe(reloaded))
        else:
            print(f"\nno feasible route: {result.failure_reason}")


if __name__ == "__main__":
    main()
