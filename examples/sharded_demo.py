#!/usr/bin/env python
"""Sharded serving demo: partitioned KOR over a Flickr-like city.

Walks through the full ShardedQueryService story:

1. partition the city graph into cells, each with its own small cost
   tables, and serve one engine over partitioned tables that assemble
   full-graph answers from the cells' tables and a border-to-border
   tier — no flat global tables anywhere;
2. show that every query, wherever it lies, is one search on that
   engine;
3. run the same batch on both execution backends (serial: waves inline;
   process: each wave on the least-loaded of two worker lanes) and
   compare wall clock, plus the engines each lane built;
4. read the task counters and search outcomes off the service stats.

Run:  PYTHONPATH=src python examples/sharded_demo.py
"""

import time
from collections import Counter

from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.prep.partition import PartitionedCostTables
from repro.service import ProcessBackend, SerialBackend, ShardedQueryService


def build_city():
    config = FlickrConfig(photo_stream=PhotoStreamConfig(num_users=150, num_hotspots=60, seed=3))
    return build_flickr_graph(config).graph


def build_batch(service, count=30, seed=11):
    """Distinct queries drawn from the city's own vocabulary."""
    engine = service.engine  # full-graph view, partitioned tables
    config = QuerySetConfig(num_queries=count, num_keywords=3, budget_limit=5.0, seed=seed)
    return generate_query_set(engine.graph, engine.index, config, tables=engine.tables)


def main():
    graph = build_city()
    print(f"flickr-like city: {graph.num_nodes} locations, {graph.num_edges} arcs")

    service = ShardedQueryService(graph, backend=SerialBackend(), cache_capacity=0)
    sizes = [len(state.to_global) for state in service.world.cells]
    flat_mb = PartitionedCostTables.flat_memory_bytes(graph.num_nodes) / 1e6
    borders = len(service.partition.border_nodes)
    print(
        f"partitioned into {service.num_shards} cells of {min(sizes)}-{max(sizes)} "
        f"nodes + a {borders}-node border tier "
        f"({service.memory_bytes() / 1e6:.1f} MB resident tables; a flat "
        f"service's score tables alone would be {flat_mb:.1f} MB)\n"
    )

    batch = build_batch(service)
    plans = Counter(service.plan_of(query) for query in batch)
    print(f"plans of {len(batch)} queries: ", dict(plans))
    print(
        "  every query is one search on the engine over the border tier, in\n"
        "  global node ids.  Border-table assembly is exact, so feasibility\n"
        "  always matches a flat engine for the complete algorithms.\n"
    )

    backends = (
        ("serial ", SerialBackend()),
        ("process", ProcessBackend(workers=2)),
    )
    for name, backend in backends:
        svc = ShardedQueryService(graph, backend=backend, cache_capacity=0)
        svc.run_batch(batch[:4], algorithm="bucketbound")  # warm pools/engines
        begin = time.perf_counter()
        results = svc.run_batch(batch, algorithm="bucketbound")
        wall = time.perf_counter() - begin
        feasible = sum(result.feasible for result in results)
        print(
            f"{name} backend: {1000.0 * wall:7.1f} ms "
            f"({len(batch) / wall:6.0f} qps, {feasible}/{len(batch)} feasible)"
        )
        if isinstance(backend, ProcessBackend):
            for lane, stats in sorted(backend.worker_stats().items()):
                print(f"  lane {lane} built {sum(stats['builds'].values())} engine(s)")
        backend.close()
    print("\n(on a single-CPU box the lanes cannot beat serial — the point of\n"
          " the process pool is multi-core batch fan-out past the GIL)\n")

    service.run_batch(batch, algorithm="bucketbound")
    snapshot = service.snapshot()
    print("task counters:")
    for shard, tasks in sorted(snapshot.shard_tasks.items()):
        print(f"  {shard:18s} {tasks:4d} tasks")
    if snapshot.merge_wins:
        wins = ", ".join(
            f"{winner}={count}" for winner, count in sorted(snapshot.merge_wins.items())
        )
        print(f"search outcomes: {wins}")
    print("\nserving metrics:", snapshot.describe())

    best = min(
        (r for r in service.run_batch(batch, algorithm="bucketbound") if r.feasible),
        key=lambda r: r.objective_score,
        default=None,
    )
    if best is not None:
        print("\nsample answer (best objective in the batch):")
        print(" ", best.route.describe(graph))


if __name__ == "__main__":
    main()
