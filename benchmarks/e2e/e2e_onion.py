"""The traced replay: per-layer numbers without touching ``src/``.

Nothing inside the program is instrumented (that is a later issue's
``Span``).  Instead the benchmark peels the stack like an onion: the same
request is timed through successively inner *public* entry points —
socket ``http_request`` -> ``asgi_request(app)`` ->
``AsyncQueryService.submit`` -> ``service.execute`` ->
``backend.submit_wave`` -> ``run_wave_on_engine`` / ``KOREngine.run`` —
one span per call, and a layer's self time is its span minus the next
inner span of the same request.  Counts come from ``/stats``,
``pin_stats()``, ``plan_of()``, ``KORResult.stats`` and ``WorldUpdate``.

Shares are taken against the *untraced* per-request floors of the same
requests, so ``unaccounted_share`` (1 - sum of shares) goes negative by
about ``trace.overhead_share`` when the single-shot traced calls ran
slower than the floors, and positive when the onion misses time.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time
from collections import Counter
from pathlib import Path

from repro.core.kernels import KernelContext
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables
from repro.server import (
    KORApp,
    asgi_request,
    encode_route_result,
    http_request,
    parse_route_query,
    validate_route_result,
)
from repro.service import AsyncQueryService, WaveTask, run_wave_on_engine
from repro.world import MutableWorld

__all__ = ["PER_LAYER", "trace_layers"]

ROOT = Path(__file__).resolve().parent.parent.parent
TRACE_DIR = ROOT / "benchmarks" / "results"

#: Requests peeled per workload, evenly strided through the stream.
ONION_SAMPLES = {"edge_hot": 200, "search_cold": 128, "batch_waves": 8, "sharded_mutating": 48}
#: Every depth is timed this many times; a span's time is the minimum.
#: More where requests are cheap: the floors these are compared against
#: are minima over hundreds of samples there.
ONION_ROUNDS = {"edge_hot": 6, "search_cold": 3, "batch_waves": 2, "sharded_mutating": 2}
HEALTHZ_SAMPLES = 30
TABLE_PROBES = 24

#: Every per-layer metric and its unit, as BENCHMARK.json lists them; a
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    metric["name"]: metric["unit"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}

TIME_UNITS = ("s", "ms", "us")

#: Queries after each update whose floors make ``post_update_ms``.
POST_UPDATE_QUERIES = 8


class Tracer:
    """Spans kept in memory; written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def open(self, name, layer, request, parent) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "request": request,
            "parent": parent,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: dict) -> float:
        span["end"] = time.perf_counter()
        return span["end"] - span["start"]

    def call(self, name, layer, request, parent, fn, *args, **kwargs):
        """Time ``fn(*args)``; returns ``(result, span id, seconds)``."""
        span = self.open(name, layer, request, parent)
        result = fn(*args, **kwargs)
        return result, span["id"], self.close(span)

    async def acall(self, name, layer, request, parent, awaitable):
        span = self.open(name, layer, request, parent)
        result = await awaitable
        return result, span["id"], self.close(span)

    def adopt(self, parent: int, child: int) -> None:
        """Link spans that were timed inner-first."""
        self.spans[child]["parent"] = parent

    def write(self, workload: str) -> Path:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"e2e_trace_{workload}.json"
        path.write_text(json.dumps({"workload": workload, "spans": self.spans}))
        return path


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _strided(positions: list[int], samples: int) -> list[int]:
    stride = max(1, -(-len(positions) // samples))
    return positions[::stride]


class Depths:
    """Seconds per depth and request: the minimum over the rounds."""

    def __init__(self) -> None:
        self._best: dict[str, dict[int, float]] = {}

    def keep(self, depth: str, position: int, seconds: float) -> None:
        best = self._best.setdefault(depth, {})
        best[position] = min(seconds, best.get(position, seconds))

    def count(self, depth: str) -> int:
        return len(self._best.get(depth, {}))

    def total(self, depth: str) -> float:
        return sum(self._best.get(depth, {}).values())

    def mean(self, depth: str) -> float:
        return _mean(self._best.get(depth, {}).values())


def read_counters(service) -> dict:
    """The monotone counters a pass moves, flattened."""
    snapshot = service.snapshot()
    waves = snapshot.waves
    return {
        "hits": snapshot.cache_hits,
        "misses": snapshot.cache_misses,
        "invalidations": service.cache.stats.invalidations,
        "waves_formed": waves.get("formed", 0),
        "wave_members": waves.get("members", 0),
        "wave_capacity": waves.get("capacity", 0),
        **{f"merge.{winner}": n for winner, n in snapshot.merge_wins.items()},
    }


async def read_stats(address) -> dict:
    """Front-end scheduling counters as ``GET /stats`` reports them."""
    response = await http_request(*address, "GET", "/stats")
    document = response.json()
    return {
        "flights": document["scheduling"]["flights"],
        "waves": document["scheduling"]["waves"],
        "coalesced": document["frontend"]["coalesced"],
    }


# ----------------------------------------------------------------------
async def trace_layers(
    workload, deployment, builds, stream, floor, speed, checker, counters
) -> dict:
    """Peel every layer; returns ``{metric: entry}`` for PER_LAYER.

    *floor* holds the uncalibrated per-request floors, which is what the
    traced calls are compared against; every time reported is then
    scaled by *speed* like the end-to-end ones (see ``machine_speed``).
    """
    onion = Onion(workload, deployment, stream, floor, checker.engine)
    tracer, put = onion.tracer, onion.put
    service = deployment.service

    # -- set-up stages and build references ------------------------------
    for stage in (
        "datasets.build_s",
        "server.boot_s",
        "prep.partition.build_s",
        "service.backends.pool_start_s",
    ):
        seen = sorted(stages[stage] for stages in builds if stage in stages)
        if seen:
            put(stage, seen[len(seen) // 2], len(seen))
    graph = deployment.graph
    put("prep.tables.build_s", tracer.call(
        "CostTables.from_graph", "prep.tables", None, None, CostTables.from_graph, graph
    )[2])  # fmt: skip
    put("index.build_s", tracer.call(
        "InvertedIndex.from_graph", "index", None, None, InvertedIndex.from_graph, graph
    )[2])  # fmt: skip

    # -- counts of one pass ----------------------------------------------
    before, after = counters
    delta = {key: after[key] - before.get(key, 0) for key in after}
    put("service.frontend.flights", delta["flights"])
    put("service.frontend.waves", delta["waves"])
    put("service.frontend.coalesced", delta["coalesced"])
    lookups = delta["hits"] + delta["misses"]
    put("service.cache.hit_share", delta["hits"] / lookups if lookups else 0.0, lookups)
    put("service.cache.invalidations", delta["invalidations"])
    put("service.batch.waves_formed", delta["waves_formed"])
    if delta["wave_capacity"]:
        put(
            "service.batch.fill_rate",
            delta["wave_members"] / delta["wave_capacity"],
            delta["waves_formed"],
        )
    for winner in ("cell", "crosscell", "infeasible"):
        put(f"service.sharding.merge_wins.{winner}", delta.get(f"merge.{winner}", 0))
    put("core.infeasible_share", checker.infeasible_share, checker.exact_feasible)

    # -- the cheapest request there is -----------------------------------
    healthz = [
        (await tracer.acall(
            "http_request /healthz", "server.client", None, None,
            http_request(*onion.address, "GET", "/healthz"),
        ))[2]
        for _ in range(HEALTHZ_SAMPLES)
    ]  # fmt: skip
    put("server.client.healthz_ms", min(healthz) * 1e3, len(healthz))

    # -- the onion ---------------------------------------------------------
    if workload.name == "batch_waves":
        self_seconds = await onion.peel_batches()
    else:
        self_seconds = await onion.peel_queries()
    answering = sum(1 for request in stream if request.kind != "update")
    per_pass = {layer: seconds * answering for layer, seconds in self_seconds.items()}
    if hasattr(service, "world"):
        for layer, seconds in (await onion.peel_updates()).items():
            per_pass[layer] = per_pass.get(layer, 0.0) + seconds * (len(stream) - answering)
    await onion.front.close()

    # A negative self time (an inner call timed slower alone than inside
    # its caller) explains nothing; it is left to unaccounted_share.
    shares = {layer: max(0.0, seconds) / sum(floor) for layer, seconds in per_pass.items()}
    shares["service"] = shares.get("service", 0.0) + shares.pop("frontend", 0.0)
    for layer in ("server", "service", "core", "world"):
        put(f"share.{layer}", shares.get(layer, 0.0))
    put("unaccounted_share", 1.0 - sum(shares.values()))

    tracer.write(workload.name)
    return {
        name: {
            "value": onion.values.get(name, 0.0) * (speed if unit in TIME_UNITS else 1.0),
            "unit": unit,
            "samples": onion.samples.get(name, 0),
        }
        for name, unit in PER_LAYER.items()
    }


class Onion:
    """One workload's traced replay: the stack, the stream, the results."""

    def __init__(self, workload, deployment, stream, floor, engine) -> None:
        self.workload = workload
        self.service = deployment.service
        self.address = deployment.server.address
        self.graph = deployment.graph
        self.stream = stream
        self.floor = floor
        #: The flat engine over the start-state graph (see AnswerChecker).
        self.engine = engine
        self.tracer = Tracer()
        # A second front end over the same sync service, living on this
        # loop: the deployment's own front end belongs to the server's.
        self.front = AsyncQueryService(self.service)
        self.app = KORApp(self.front)
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def put(self, name: str, value: float, count: int = 1) -> None:
        self.values[name] = value
        self.samples[name] = count

    def _scale(self, positions: list[int]) -> float:
        """Whole-stream mean floor over the sampled requests' mean floor:
        self times are per sampled request, shares per stream request."""
        answering = [f for f, r in zip(self.floor, self.stream) if r.kind != "update"]
        return _mean(answering) / _mean(self.floor[p] for p in positions)

    # ------------------------------------------------------------------
    async def peel_queries(self) -> dict[str, float]:
        """``/query`` requests, depth by depth; returns mean self seconds
        per top-level layer and request.

        Innermost first: on the sharded tier a query's first execution
        also assembles the table columns it touches, which later calls
        find warm.  That cost is the service's, so ``execute`` is timed
        twice — the first touch is the layer's time, the repeat is what
        the outer depths (which also run warm) are compared against.
        """
        tracer, service, put = self.tracer, self.service, self.put
        engine, front = self.engine, self.front
        cold = self.workload.cold
        sharded = hasattr(service, "world")
        # A repeated query is a cache hit in the stream but would be
        # re-computed here (every depth starts cold): peel first sightings.
        first: dict = {}
        for position, request in enumerate(self.stream):
            if request.kind == "query":
                first.setdefault(request.specs[0] if cold else position, position)
        positions = _strided(sorted(first.values()), ONION_SAMPLES[self.workload.name])
        sampled = set(positions)
        depths = Depths()
        by_algorithm: dict[str, Depths] = {}
        labels: Counter = Counter()

        def reset() -> None:
            if cold:
                service.invalidate_cache()

        for round_ in range(ONION_ROUNDS[self.workload.name]):
            for position, request in enumerate(self.stream):
                if request.kind == "update":
                    service.apply_ops(request.payload["ops"])  # state moves as in a pass
                    continue
                query, algorithm = request.specs[0]
                payload = request.payload
                if position not in sampled:
                    if sharded and first.get(request.specs[0]) == position:
                        # What a query costs on this tier depends on the
                        # table columns earlier queries left warm: the
                        # unsampled ones still run, untimed, in order.
                        service.execute([query], algorithm=algorithm)
                    continue
                name = f"{type(service).__name__}.execute"
                reset()
                _, execute, seconds = tracer.call(
                    name, "service", position, None, service.execute, [query], algorithm=algorithm
                )
                depths.keep("service", position, seconds)
                reset()
                _, _, seconds = tracer.call(
                    f"{name} (repeat)", "service", position, None,
                    service.execute, [query], algorithm=algorithm,
                )  # fmt: skip
                depths.keep("repeat", position, seconds)
                if cold:
                    # On the sharded tier this is the flat engine over the
                    # same graph: what overhead_x divides by, not a layer.
                    direct, run, seconds = tracer.call(
                        "KOREngine.run", "core", position, execute, engine.run, query, algorithm
                    )
                    depths.keep("engine", position, seconds)
                    by_algorithm.setdefault(algorithm, Depths()).keep("run", position, seconds)
                    if round_ == 0:
                        labels[algorithm] += direct.stats.labels_created
                    depths.keep("candidates", position, tracer.call(
                        "KOREngine.candidate_sets", "index", position, run,
                        engine.candidate_sets, query.keywords,
                    )[2])  # fmt: skip
                    depths.keep("bind", position, tracer.call(
                        "KOREngine.bind", "core", position, run, engine.bind, query
                    )[2])  # fmt: skip
                reset()
                result, submit, seconds = await tracer.acall(
                    "AsyncQueryService.submit", "service.frontend", position, None,
                    front.submit(query, algorithm=algorithm),
                )  # fmt: skip
                depths.keep("frontend", position, seconds)
                reset()
                _, asgi, seconds = await tracer.acall(
                    "asgi_request /query", "server.app", position, None,
                    asgi_request(self.app, "POST", "/query", payload),
                )  # fmt: skip
                depths.keep("asgi", position, seconds)
                reset()
                _, root, seconds = await tracer.acall(
                    "http_request /query", "server.stdlib", position, None,
                    http_request(*self.address, "POST", "/query", payload),
                )  # fmt: skip
                depths.keep("socket", position, seconds)
                tracer.adopt(root, asgi)
                tracer.adopt(asgi, submit)
                tracer.adopt(submit, execute)
                depths.keep("parse", position, tracer.call(
                    "parse_route_query", "server.schema", position, asgi,
                    parse_route_query, payload,
                )[2])  # fmt: skip
                document, _, seconds = tracer.call(
                    "encode_route_result", "server.schema", position, asgi,
                    encode_route_result, result, epoch=front.epoch,
                )  # fmt: skip
                depths.keep("encode", position, seconds)
                depths.keep("validate", position, tracer.call(
                    "validate_route_result", "server.schema", position, asgi,
                    validate_route_result, document,
                )[2])  # fmt: skip

        count = len(positions)
        mean = depths.mean
        schema = mean("parse") + mean("encode") + mean("validate")
        hop = mean("socket") - mean("asgi")
        app_self = mean("asgi") - mean("frontend") - schema
        frontend_self = mean("frontend") - mean("repeat")
        put("server.stdlib.hop_ms", hop * 1e3, count)
        put("server.app.self_ms", app_self * 1e3, count)
        put("server.schema.parse_us", mean("parse") * 1e6, count)
        put("server.schema.encode_us", mean("encode") * 1e6, count)
        put("server.schema.validate_us", mean("validate") * 1e6, count)
        put("service.frontend.self_ms", frontend_self * 1e3, count)
        self_seconds = {
            "server": hop + app_self + schema,
            "frontend": frontend_self,
            "service": mean("service"),
        }
        if not cold:
            put("service.cache.hit_us", mean("service") * 1e6, count)
        elif sharded:
            put("service.sharding.overhead_x", mean("service") / mean("engine"), count)
        else:
            overhead = mean("service") - mean("engine")
            put("service.service.miss_overhead_ms", overhead * 1e3, count)
            self_seconds["service"] = overhead
            self_seconds["core"] = mean("engine")
        if cold:
            for algorithm, runs in by_algorithm.items():
                members = runs.count("run")
                put(f"core.search_ms.{algorithm}", runs.mean("run") * 1e3, members)
                if algorithm != "greedy":
                    put(f"core.labels.{algorithm}", labels[algorithm], members)
            put("core.bind_us", mean("bind") * 1e6, count)
            put("index.candidate_sets_us", mean("candidates") * 1e6, count)
        untraced = sum(self.floor[p] for p in positions)
        traced = depths.total("socket") + depths.total("service") - depths.total("repeat")
        put("trace.overhead_share", traced / untraced - 1.0, count)
        if sharded:
            plans = Counter(service.plan_of(self.stream[p].specs[0][0]) for p in positions)
            local = plans.pop("local", 0)
            single = service.num_shards == 1
            put("service.sharding.plan_share.cell", local / count if single else 0.0, count)
            put("service.sharding.plan_share.both", 0.0 if single else local / count, count)
            put("service.sharding.plan_share.cross", sum(plans.values()) / count, count)
        scale = self._scale(positions)
        return {layer: seconds * scale for layer, seconds in self_seconds.items()}

    # ------------------------------------------------------------------
    async def peel_batches(self) -> dict[str, float]:
        """``/batch`` requests down to the kernels and the scalar engine."""
        tracer, service, put, engine = self.tracer, self.service, self.put, self.engine
        backend = service.backend
        (shard,) = backend.shard_keys
        positions = _strided(list(range(len(self.stream))), ONION_SAMPLES[self.workload.name])
        depths = Depths()
        task_bytes, outcome_bytes = [], []
        members = 0
        # Like a lane's, this context keeps its caches from wave to wave.
        kernel_context = KernelContext(engine.graph, engine.tables)

        for round_ in range(ONION_ROUNDS[self.workload.name]):
            for position in positions:
                request = self.stream[position]
                groups: dict[str, list] = {}
                for query, algorithm in request.specs:
                    groups.setdefault(algorithm, []).append(query)
                size = service.wave_size
                tasks = [
                    WaveTask.build(shard, queries[start : start + size], algorithm)
                    for algorithm, queries in groups.items()
                    for start in range(0, len(queries), size)
                ]
                for number, task in enumerate(tasks):
                    key = position * len(tasks) + number
                    outcomes, wave, seconds = tracer.call(
                        "submit_wave().result()", "service.backends", position, None,
                        lambda task=task: backend.submit_wave(task).result(),
                    )  # fmt: skip
                    depths.keep("remote", key, seconds)
                    _, kernel, seconds = tracer.call(
                        "run_wave_on_engine", "core.kernels", position, wave,
                        run_wave_on_engine, engine, task, kernel_context,
                    )  # fmt: skip
                    depths.keep("local", key, seconds)
                    if round_ == 0:
                        task_bytes.append(len(pickle.dumps(task)))
                        outcome_bytes.append(len(pickle.dumps(outcomes)))
                    if task.algorithm != "bucketbound":
                        continue
                    depths.keep("kernel", key, seconds)
                    span = tracer.open("KOREngine.run x members", "core", position, kernel)
                    for query in task.queries:
                        engine.run(query, task.algorithm)
                    depths.keep("scalar", key, tracer.close(span))
                    members += len(task.queries) if round_ == 0 else 0
                # All waves in flight at once, as execute() submits them.
                span = tracer.open("submit_wave (all lanes)", "service.backends", position, None)
                for future in [backend.submit_wave(task) for task in tasks]:
                    future.result()
                depths.keep("backend", position, tracer.close(span))
                service.invalidate_cache()
                span = tracer.open("QueryService.execute x groups", "service.batch", position, None)
                for algorithm, queries in groups.items():
                    service.execute(queries, algorithm=algorithm)
                depths.keep("service", position, tracer.close(span))
                execute = span["id"]
                service.invalidate_cache()
                _, submit, seconds = await tracer.acall(
                    "AsyncQueryService.submit x slots", "service.frontend", position, None,
                    asyncio.gather(
                        *(self.front.submit(q, algorithm=a) for q, a in request.specs)
                    ),
                )  # fmt: skip
                depths.keep("frontend", position, seconds)
                service.invalidate_cache()
                _, asgi, seconds = await tracer.acall(
                    "asgi_request /batch", "server.app", position, None,
                    asgi_request(self.app, "POST", "/batch", request.payload),
                )  # fmt: skip
                depths.keep("asgi", position, seconds)
                service.invalidate_cache()
                _, root, seconds = await tracer.acall(
                    "http_request /batch", "server.stdlib", position, None,
                    http_request(*self.address, "POST", "/batch", request.payload),
                )  # fmt: skip
                depths.keep("socket", position, seconds)
                tracer.adopt(root, asgi)
                tracer.adopt(asgi, submit)
                tracer.adopt(submit, execute)

        count = len(positions)
        waves = len(task_bytes)
        mean = depths.mean
        edge = mean("socket") - mean("frontend")
        frontend_self = mean("frontend") - mean("service")
        batch_self = mean("service") - mean("backend")
        overhead = mean("remote") - mean("local")
        put("server.stdlib.hop_ms", (mean("socket") - mean("asgi")) * 1e3, count)
        put("server.batch_edge_ms", edge * 1e3, count)
        put("service.frontend.self_ms", frontend_self * 1e3, count)
        put("service.batch.self_ms", batch_self * 1e3, count)
        put("service.backends.roundtrip_overhead_ms", overhead * 1e3, waves)
        put("service.backends.task_bytes", _mean(task_bytes), waves)
        put("service.backends.outcome_bytes", _mean(outcome_bytes), waves)
        pins = backend.pin_stats()
        put(
            "service.backends.pin_hit_share",
            pins["hits"] / max(1, pins["hits"] + pins["misses"]),
            pins["hits"] + pins["misses"],
        )
        put("core.kernels.wave_ms_per_query", depths.total("kernel") / members * 1e3, members)
        put("core.scalar_ms_per_query", depths.total("scalar") / members * 1e3, members)
        put("core.kernels.speedup", depths.total("scalar") / depths.total("kernel"), members)
        untraced = sum(self.floor[p] for p in positions)
        put("trace.overhead_share", depths.total("socket") / untraced - 1.0, count)
        # Per batch, the backends' own cost is what the wait for the
        # waves holds beyond computing them.
        transport = max(0.0, min(mean("backend"), overhead * waves / count))
        scale = self._scale(positions)
        return {
            "server": edge * scale,
            "frontend": frontend_self * scale,
            "service": (batch_self + transport) * scale,
            "core": (mean("backend") - transport) * scale,
        }

    # ------------------------------------------------------------------
    async def peel_updates(self) -> dict[str, float]:
        """One re-cost/restore pair per depth, plus the partition probes."""
        tracer, service, put, front = self.tracer, self.service, self.put, self.front
        stream, floor = self.stream, self.floor
        updates = [p for p, request in enumerate(stream) if request.kind == "update"]
        # The stream's two updates re-cost one edge and restore it, so
        # every depth leaves the graph in its start state.
        pair = [stream[p].payload for p in updates[:2]]
        twin = MutableWorld(self.graph, partition=service.partition)
        repaired = []

        async def socket(payload):
            return await http_request(*self.address, "POST", "/admin/update", payload)

        async def asgi(payload):
            return await asgi_request(self.app, "POST", "/admin/update", payload)

        async def frontend(payload):
            return await front.apply_update(payload["ops"])

        async def sharding(payload):
            return service.apply_ops(payload["ops"])

        async def world(payload):
            repaired.append(len(twin.apply_ops(payload["ops"]).repaired_cells))

        mean: dict[str, float] = {}
        parent = None
        for name, layer, apply in (
            ("http_request /admin/update", "server.stdlib", socket),
            ("asgi_request /admin/update", "server.app", asgi),
            ("AsyncQueryService.apply_update", "service.frontend", frontend),
            ("ShardedQueryService.apply_ops", "service.sharding", sharding),
            ("MutableWorld.apply_ops", "world", world),
        ):
            best = Depths()
            for _ in range(ONION_ROUNDS[self.workload.name]):
                for member, payload in enumerate(pair):
                    _, span, took = await tracer.acall(name, layer, None, parent, apply(payload))
                    best.keep(layer, member, took)
            parent = span
            mean[layer] = best.mean(layer)
        _, _, rebuild = tracer.call("MutableWorld.rebuilt", "world", None, None, twin.rebuilt)
        put("world.apply_ops_ms", mean["world"] * 1e3, len(pair))
        put("world.repaired_cells", _mean(repaired), len(pair))
        put("world.rebuild_ms", rebuild * 1e3)
        put(
            "service.sharding.integrate_ms",
            (mean["service.sharding"] - mean["world"]) * 1e3,
            len(pair),
        )
        update_floors = sorted(floor[p] for p in updates)
        put("world.update_p50_ms", update_floors[len(update_floors) // 2] * 1e3, len(updates))
        after = [
            floor[p]
            for update in updates
            for p in range(update + 1, min(len(stream), update + 1 + POST_UPDATE_QUERIES))
            if stream[p].kind == "query"
        ]
        put("service.sharding.post_update_ms", _mean(after) * 1e3, len(after))

        # The last apply_ops left fresh partitioned tables: the first touch
        # of a column/row assembles it across cells (a second is ~1 us).
        tables = service.world.tables
        nodes = range(0, tables.num_nodes, max(1, tables.num_nodes // TABLE_PROBES))
        for axis, fetch in (("col", tables.bs_sigma_col), ("row", tables.bs_sigma_row)):
            seconds = [
                tracer.call(
                    f"PartitionedCostTables.bs_sigma_{axis}", "prep.partition",
                    None, None, fetch, node,
                )[2]
                for node in nodes
            ]  # fmt: skip
            put(f"prep.partition.{axis}_us", _mean(seconds) * 1e6, len(seconds))
        return {
            "server": mean["server.stdlib"] - mean["service.frontend"],
            "frontend": mean["service.frontend"] - mean["service.sharding"],
            "service": mean["service.sharding"] - mean["world"],
            "world": mean["world"],
        }
