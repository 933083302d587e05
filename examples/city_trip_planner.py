#!/usr/bin/env python
"""The paper's qualitative example (Figures 20-21) on a synthetic city.

Section 4.2.7 fixes a start (Dewitt Clinton Park) and a destination
(United Nations Headquarters), asks for {jazz, imax, vegetation,
cappuccino}, and shows how the returned most-popular route changes when
the distance budget drops from 9 km to 6 km.

This example rebuilds that experiment end to end on the synthetic
Flickr-like dataset: generate photos, cluster them into locations,
extract trips, pick four keywords and two far-apart locations, then
compare the Delta = 9 km and Delta = 6 km answers.

Run:  python examples/city_trip_planner.py
"""

import math

import numpy as np

from repro.core.engine import KOREngine
from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig


def pick_endpoints(graph, tables, rng):
    """Two locations a realistic walk apart (1.5 - 3 km of cheapest route)."""
    n = graph.num_nodes
    for _ in range(500):
        source, target = int(rng.integers(n)), int(rng.integers(n))
        if source == target:
            continue
        direct = tables.bs_sigma[source, target]
        if 1.5 <= direct <= 3.0:
            return source, target
    raise SystemExit("could not find endpoints at a walkable distance")


def pick_keywords(graph, index, rng, count=4):
    """Popular-ish tags, like the paper's jazz/imax/vegetation/cappuccino."""
    table = graph.keyword_table
    candidates = [
        kid
        for kid in range(len(table))
        if 0.03 * graph.num_nodes <= index.document_frequency(kid) <= 0.3 * graph.num_nodes
    ]
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return tuple(table.word_of(candidates[int(i)]) for i in chosen)


def describe(graph, route):
    hops = " -> ".join(graph.name_of(v) for v in route.nodes)
    popularity = math.exp(-route.objective_score)
    return (
        f"  {hops}\n"
        f"  length {route.budget_score:.2f} km over {route.num_edges} legs, "
        f"popularity score {popularity:.3g} (OS = {route.objective_score:.2f})"
    )


def main():
    rng = np.random.default_rng(2012)  # the paper's vintage
    print("building the synthetic city (photos -> locations -> trips)...")
    dataset = build_flickr_graph(
        FlickrConfig(photo_stream=PhotoStreamConfig(num_users=300, num_hotspots=120, seed=7))
    )
    graph = dataset.graph
    print(" ", dataset.summary())

    engine = KOREngine(graph)
    source, target = pick_endpoints(graph, engine.tables, rng)
    keywords = pick_keywords(graph, engine.index, rng)
    print(f"\ntrip: {graph.name_of(source)} -> {graph.name_of(target)}")
    print(f"must pass by: {', '.join(keywords)}")

    for delta in (9.0, 6.0):
        result = engine.query(source, target, keywords, delta, algorithm="osscaling", epsilon=0.5)
        print(f"\nDelta = {delta:.0f} km:")
        if result.feasible:
            print(describe(graph, result.route))
        else:
            print(f"  no feasible route ({result.failure_reason})")

    # The paper's observation: the 9 km winner is pruned at 6 km, and a
    # less popular but shorter route takes its place.


if __name__ == "__main__":
    main()
