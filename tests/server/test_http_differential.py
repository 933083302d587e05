"""End-to-end: the HTTP front door vs direct ``AsyncQueryService`` calls.

The acceptance bar for the network tier: results served over HTTP (real
sockets through the stdlib host, and the raw ASGI callable) must be
**byte-identical** to what a direct in-process ``AsyncQueryService``
awaiter gets, for all six algorithms — the transport adds nothing and
loses nothing.  Plus the rest of the surface: batch, streaming top-k,
stats/endpoint counters, tune, and the error mapping.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.engine import ALGORITHMS
from repro.server import (
    KORApp,
    asgi_request,
    decode_route_result,
    encode_route_result,
    http_request,
    serve,
)
from repro.service import AsyncQueryService, QueryService, build_service
from repro.world import MutableWorld

from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_frontend import SlowEngine


def canonical_bytes(document: dict) -> bytes:
    """Key-order-independent byte form of one wire document."""
    return json.dumps(document, sort_keys=True, allow_nan=False).encode()


def query_payload(query, algorithm: str) -> dict:
    return {
        "source": query.source,
        "target": query.target,
        "keywords": list(query.keywords),
        "budget_limit": query.budget_limit,
        "algorithm": algorithm,
    }


@pytest.fixture(scope="module")
def instance():
    return random_instance(0)


@pytest.fixture(scope="module")
def server(instance):
    engine, _queries = instance
    server = serve(QueryService(engine, cache_capacity=256))
    yield server
    server.close()


def over_http(server, method, path, payload=None):
    host, port = server.address
    return asyncio.run(http_request(host, port, method, path, payload))


class TestHTTPDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_http_results_byte_identical_to_direct_frontend(
        self, algorithm, instance, server
    ):
        """Acceptance: socket HTTP == direct AsyncQueryService, byte for
        byte on the wire encoding, for all six algorithms."""
        engine, queries = instance

        async def direct():
            async with AsyncQueryService(QueryService(engine, cache_capacity=256)) as front:
                return [
                    await front.submit(query, algorithm=algorithm) for query in queries
                ]

        # The server stamps every result with the graph epoch it served
        # under (0 here: the module fixture never mutates); the direct
        # encoding must carry the same stamp to stay byte-identical.
        expected = [
            canonical_bytes(encode_route_result(r, epoch=0))
            for r in asyncio.run(direct())
        ]
        got = []
        for query in queries:
            response = over_http(server, "POST", "/query", query_payload(query, algorithm))
            assert response.status == 200, response.body
            got.append(canonical_bytes(response.json()))
        assert got == expected

    def test_asgi_inproc_matches_engine(self, instance):
        """The raw ASGI callable (no sockets) stays differential too."""
        engine, queries = instance

        async def drive():
            front = AsyncQueryService(QueryService(engine, cache_capacity=256))
            app = KORApp(front)
            try:
                out = []
                for algorithm in ALGORITHMS:
                    response = await asgi_request(
                        app, "POST", "/query", query_payload(queries[1], algorithm)
                    )
                    assert response.status == 200, response.body
                    out.append((algorithm, decode_route_result(response.json())))
                return out
            finally:
                await front.close()

        for algorithm, decoded in asyncio.run(drive()):
            assert fingerprint(decoded) == fingerprint(
                engine.run(queries[1], algorithm=algorithm)
            )

    def test_batch_endpoint_matches_per_query_answers(self, instance, server):
        engine, queries = instance
        response = over_http(
            server,
            "POST",
            "/batch",
            {
                "queries": [query_payload(q, "greedy") for q in queries],
                "algorithm": "greedy",
            },
        )
        assert response.status == 200
        envelope = response.json()
        assert envelope["schema"] == "kor.route_batch.v1"
        assert envelope["count"] == len(queries)
        for query, slot in zip(queries, envelope["results"]):
            assert "error" not in slot
            assert fingerprint(decode_route_result(slot)) == fingerprint(
                engine.run(query, algorithm="greedy")
            )

    def test_batch_isolates_per_slot_errors(self, instance, server):
        engine, queries = instance
        bad = {
            "source": engine.graph.num_nodes + 9, "target": 0,
            "keywords": [], "budget_limit": 4.0,
        }
        response = over_http(
            server,
            "POST",
            "/batch",
            {"queries": [query_payload(queries[0], "bucketbound"), bad]},
        )
        assert response.status == 200
        good_slot, bad_slot = response.json()["results"]
        assert "error" not in good_slot
        assert bad_slot["error"]["type"] == "QueryError"


class TestStreamingTopK:
    def test_topk_stream_matches_engine_over_chunked_http(self, instance, server):
        engine, queries = instance
        query = queries[0]
        expected = engine.top_k(
            query.source, query.target, query.keywords, query.budget_limit, 3,
            algorithm="bucketbound",
        )
        response = over_http(
            server,
            "POST",
            "/topk/stream",
            {**query_payload(query, "bucketbound"), "k": 3},
        )
        assert response.status == 200
        assert response.headers.get("transfer-encoding", "").lower() == "chunked"
        header, *lines = response.ndjson()
        assert header["schema"] == "kor.route_topk.v1"
        assert header["count"] == len(expected.routes) == len(lines)
        for rank, (line, route) in enumerate(zip(lines, expected.routes), start=1):
            assert line["rank"] == rank
            assert tuple(line["nodes"]) == route.nodes
            assert line["score"]["objective"] == pytest.approx(route.objective_score)
            assert line["score"]["budget"] == pytest.approx(route.budget_score)

    def test_topk_rejects_bad_k_and_bad_algorithm(self, instance, server):
        _engine, queries = instance
        payload = query_payload(queries[0], "bucketbound")
        assert over_http(server, "POST", "/topk/stream", {**payload, "k": 0}).status == 400
        # exact is a valid KOR algorithm but not a top-k one: still a 400.
        response = over_http(
            server, "POST", "/topk/stream", {**payload, "algorithm": "exact", "k": 2}
        )
        assert response.status == 400


class TestOperationalSurface:
    def test_healthz_lists_endpoints(self, server):
        response = over_http(server, "GET", "/healthz")
        assert response.status == 200
        assert "/query" in response.json()["endpoints"]

    def test_stats_reports_endpoint_counters(self, instance, server):
        _engine, queries = instance
        over_http(server, "POST", "/query", query_payload(queries[0], "bucketbound"))
        response = over_http(server, "GET", "/stats")
        assert response.status == 200
        payload = response.json()
        assert payload["schema"] == "kor.service_stats.v1"
        assert payload["frontend"]["endpoints"]["/query"]["requests"] >= 1
        assert "window_seconds" in payload["scheduling"]
        assert payload["service"]["queries"] >= 1

    def test_error_mapping(self, server):
        assert over_http(server, "GET", "/no-such-endpoint").status == 404
        assert over_http(server, "GET", "/query").status == 405
        malformed = over_http(server, "POST", "/query", {"source": 0})
        assert malformed.status == 400
        assert malformed.json()["error"]["type"] == "WireError"
        unknown = over_http(
            server,
            "POST",
            "/query",
            {"source": 0, "target": 1, "keywords": [], "budget_limit": 2.0,
             "algorithm": "dijkstra"},
        )
        assert unknown.status == 400
        # Bad requests are counted as endpoint errors in the stats.
        stats = over_http(server, "GET", "/stats").json()
        assert stats["frontend"]["endpoints"]["/query"]["errors"] >= 2

    def test_input_limits_are_4xx_and_counted_as_endpoint_errors(self, instance):
        """ROADMAP item E: ``/batch`` size and keyword count each have a
        limit, a 4xx and a counter (the endpoint's ``errors``)."""
        from repro.server.app import MAX_BATCH_QUERIES
        from repro.server.schema import MAX_QUERY_KEYWORDS

        engine, queries = instance
        slot = query_payload(queries[0], "greedy")
        wordy = {**slot, "keywords": [f"w{index}" for index in range(MAX_QUERY_KEYWORDS + 1)]}
        server = serve(QueryService(engine, cache_capacity=0))
        try:
            full = over_http(server, "POST", "/batch", {"queries": [slot] * MAX_BATCH_QUERIES})
            assert full.status == 200 and full.json()["count"] == MAX_BATCH_QUERIES
            oversized = over_http(
                server, "POST", "/batch", {"queries": [slot] * (MAX_BATCH_QUERIES + 1)}
            )
            assert oversized.status == 413
            error = oversized.json()["error"]
            assert error["type"] == "PayloadTooLarge"
            assert "1025 queries exceed the 1024-query limit" in error["message"]
            too_wordy = over_http(server, "POST", "/query", wordy)
            assert too_wordy.status == 400
            assert too_wordy.json()["error"]["type"] == "WireError"
            assert "64-keyword limit" in too_wordy.json()["error"]["message"]
            # One bad slot fails the batch's parse, like any malformed slot.
            assert over_http(server, "POST", "/batch", {"queries": [slot, wordy]}).status == 400
            endpoints = over_http(server, "GET", "/stats").json()["frontend"]["endpoints"]
            assert endpoints["/batch"] == {"requests": 3, "errors": 2}
            assert endpoints["/query"] == {"requests": 1, "errors": 1}
        finally:
            server.close()

    def test_healthz_and_stats_payload_shapes(self, instance, server):
        """/healthz reads its shed counter without a snapshot and
        snapshots sort their window once: neither changes a payload."""
        health = over_http(server, "GET", "/healthz").json()
        assert set(health) == {"status", "endpoints", "pending", "max_pending", "shed", "epoch"}
        assert health["status"] == "ok"
        assert health["shed"] == 0 and isinstance(health["shed"], int)
        stats = over_http(server, "GET", "/stats").json()
        assert set(stats) == {"schema", "frontend", "scheduling", "epoch", "service"}
        for tier in ("frontend", "service"):
            assert {
                "queries",
                "errors",
                "cache_hits",
                "cache_misses",
                "p50_latency_seconds",
                "p95_latency_seconds",
                "p99_latency_seconds",
                "mean_latency_seconds",
                "shed",
                "waves",
            } <= set(stats[tier])
            assert stats[tier]["shed"] == health["shed"]

    def test_request_timeout_maps_to_504(self, instance):
        engine, queries = instance
        server = serve(QueryService(SlowEngine(engine, delay_seconds=0.5), cache_capacity=0))
        try:
            response = over_http(
                server,
                "POST",
                "/query",
                {**query_payload(queries[0], "bucketbound"), "timeout": 0.01},
            )
            assert response.status == 504
        finally:
            server.close()

    def test_tune_adjusts_adaptive_window(self, instance):
        engine, _queries = instance
        server = serve(
            QueryService(engine, cache_capacity=16),
            adaptive_target_batch=8,
            max_window_seconds=0.05,
        )
        try:
            response = over_http(server, "POST", "/tune", {"arrival_qps": 1000.0})
            assert response.status == 200
            payload = response.json()
            assert payload["adaptive"] is True
            assert payload["window_seconds"] == pytest.approx(0.008)
        finally:
            server.close()


def raw_exchange(server, head: bytes) -> tuple[int, dict, dict]:
    """Send raw request bytes over a real socket; parse the answer."""
    import json
    import socket

    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(head)
        data = b""
        while chunk := sock.recv(65536):  # the server must close, not wait for a body
            data += chunk
    header_block, _, body = data.partition(b"\r\n\r\n")
    lines = header_block.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    return int(lines[0].split()[1]), headers, json.loads(body)


class TestContentLengthValidation:
    """The stdlib host validates ``Content-Length`` before using a byte
    of body: a 4xx in the app's JSON error shape plus ``Connection:
    close``, never a reset or a connection left waiting for the body."""

    def request(self, server, content_length: str):
        return raw_exchange(
            server,
            (
                "POST /query HTTP/1.1\r\n"
                "Host: test\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n"
                "\r\n"
            ).encode("latin-1"),
        )

    def test_non_numeric_content_length_is_a_400(self, server):
        status, headers, payload = self.request(server, "twelve")
        assert status == 400
        assert headers["connection"] == "close"
        assert payload["error"]["type"] == "BadRequest"
        assert "twelve" in payload["error"]["message"]

    def test_negative_content_length_is_a_400(self, server):
        """The answer must arrive while this socket is still open (the
        old bridge's ``rfile.read(-1)`` blocked until the peer closed)."""
        status, headers, payload = self.request(server, "-1")
        assert status == 400
        assert headers["connection"] == "close"
        assert payload["error"]["type"] == "BadRequest"

    def test_oversized_content_length_is_a_413(self, server):
        from repro.server.stdlib import MAX_BODY_BYTES

        status, headers, payload = self.request(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert headers["connection"] == "close"
        assert payload["error"]["type"] == "PayloadTooLarge"
        # The limit itself is still served: a body of exactly
        # MAX_BODY_BYTES is read (and then fails JSON parsing, a 400).
        body = b" " * MAX_BODY_BYTES
        status, _headers, payload = raw_exchange(
            server,
            (
                "POST /query HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body,
        )
        assert status == 400
        assert payload["error"]["type"] == "WireError"

    def test_the_server_keeps_serving_afterwards(self, instance, server):
        _engine, queries = instance
        self.request(server, "nonsense")
        ok = over_http(server, "POST", "/query", query_payload(queries[0], "bucketbound"))
        assert ok.status == 200


class TestAdminUpdate:
    """``/admin/update`` (ISSUE 9): live mutation through the front door."""

    def _fresh(self):
        engine, queries = random_instance(0)
        world = MutableWorld(engine.graph, num_cells=2)
        front = build_service(world, tier="async")
        return KORApp(front), world, queries

    def test_update_acks_with_the_new_epoch_and_serving_follows(self):
        app, world, queries = self._fresh()
        payload = query_payload(queries[0], "exact")

        async def drive():
            before = await asgi_request(app, "POST", "/query", payload)
            ack = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {
                    "schema": "kor.graph_update.v1",
                    "ops": [{"op": "update_keywords", "node": 0,
                             "keywords": ["pub", "mall"]}],
                },
            )
            after = await asgi_request(app, "POST", "/query", payload)
            health = await asgi_request(app, "GET", "/healthz")
            stats = await asgi_request(app, "GET", "/stats")
            await app.frontend.close()
            return before, ack, after, health, stats

        before, ack, after, health, stats = asyncio.run(drive())
        assert ack.status == 200
        body = ack.json()
        assert body["schema"] == "kor.graph_update_ack.v1"
        assert body == {"schema": "kor.graph_update_ack.v1", "epoch": 1, "applied": 1}
        # Every result is stamped with the epoch it was served under.
        assert before.json()["epoch"] == 0
        assert after.json()["epoch"] == 1
        # The operational surface reports the same epoch.
        assert health.json()["epoch"] == 1
        assert stats.json()["epoch"] == 1
        assert world.epoch == 1

    @pytest.mark.parametrize("path", ["/query", "/batch"])
    @pytest.mark.parametrize("tier", ["flat", "sharded"])
    def test_an_answer_is_stamped_with_the_epoch_it_was_computed_against(self, tier, path):
        """Regression: the stamp was read *after* the awaited search, so
        an update landing while ``execute`` ran relabelled an epoch-0
        answer as epoch 1 — schema-valid, and wrong."""
        engine, queries = random_instance(0)
        graph = engine.graph
        subject = graph if tier == "flat" else MutableWorld(graph, num_cells=2)
        front = build_service(subject, tier="async")
        app = KORApp(front)
        service = front.service
        computed, release = threading.Event(), threading.Event()
        execute = service.execute

        def held(*args, **kwargs):
            report = execute(*args, **kwargs)  # the whole search, at epoch 0
            computed.set()
            assert release.wait(30.0)
            return report

        service.execute = held
        payload = query_payload(queries[0], "exact")
        if path == "/batch":
            payload = {"queries": [payload]}
        u, v = next(
            (u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u)
        )
        update = {"ops": [{"op": "update_edge_cost", "u": u, "v": v, "objective": 9.0}]}

        async def drive():
            try:
                answer = asyncio.ensure_future(asgi_request(app, "POST", path, payload))
                while not computed.is_set():
                    await asyncio.sleep(0.002)
                try:
                    ack = await asgi_request(app, "POST", "/admin/update", update)
                finally:
                    release.set()
                return await answer, ack
            finally:
                await front.close()

        answer, ack = asyncio.run(drive())
        assert ack.status == 200 and ack.json()["epoch"] == 1
        assert answer.status == 200
        document = answer.json()
        result = document["results"][0] if path == "/batch" else document
        assert result["epoch"] == 0

    def test_post_update_results_match_a_rebuilt_world(self):
        app, world, queries = self._fresh()
        u, v = next(
            (u, v)
            for u in range(world.graph.num_nodes)
            for v, _o, _b in world.graph.out_edges(u)
        )

        async def drive():
            ack = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {"ops": [{"op": "update_edge_cost", "u": u, "v": v,
                          "objective": 9.0, "budget": 9.0}]},
            )
            answers = [
                await asgi_request(app, "POST", "/query", query_payload(q, "exact"))
                for q in queries
            ]
            await app.frontend.close()
            return ack, answers

        ack, answers = asyncio.run(drive())
        assert ack.status == 200
        from repro.service import ShardedQueryService

        oracle = ShardedQueryService(world=world.rebuilt())
        try:
            for query, response in zip(queries, answers):
                assert response.status == 200
                expected = oracle.run_batch([query], algorithm="exact")[0]
                assert fingerprint(decode_route_result(response.json())) == fingerprint(
                    expected
                )
        finally:
            oracle.close()

    def test_error_mapping_for_updates(self):
        app, world, _queries = self._fresh()

        async def drive():
            malformed = await asgi_request(
                app, "POST", "/admin/update", {"ops": [{"op": "set_on_fire"}]}
            )
            semantic = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {"ops": [{"op": "open_node", "node": 0}]},  # not closed
            )
            await app.frontend.close()
            return malformed, semantic

        malformed, semantic = asyncio.run(drive())
        assert malformed.status == 400
        assert malformed.json()["error"]["type"] == "WireError"
        assert semantic.status == 400
        assert semantic.json()["error"]["type"] == "MutationError"
        assert world.epoch == 0  # nothing was applied

    def test_refused_batch_is_not_half_applied(self):
        """A batch refused at its second op answers 400 and leaves no
        trace: the next accepted update serves exactly a rebuilt world."""
        app, world, queries = self._fresh()
        graph = world.graph
        u, v = next(
            (u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u)
        )

        async def drive():
            refused = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {"ops": [{"op": "close_node", "node": u}, {"op": "close_node", "node": u}]},
            )
            epoch_after_refusal, graph_after_refusal = world.epoch, world.graph
            accepted = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {"ops": [{"op": "update_keywords", "node": v, "keywords": ["pub"]}]},
            )
            answers = [
                await asgi_request(app, "POST", "/query", query_payload(q, "exact"))
                for q in queries
            ]
            stats = await asgi_request(app, "GET", "/stats")
            await app.frontend.close()
            return refused, epoch_after_refusal, graph_after_refusal, accepted, answers, stats

        refused, epoch, seen_graph, accepted, answers, stats = asyncio.run(drive())
        assert refused.status == 400
        assert refused.json()["error"]["type"] == "MutationError"
        assert epoch == 0 and seen_graph is graph
        assert accepted.status == 200 and accepted.json()["epoch"] == 1
        assert world.closed_nodes == frozenset()
        assert world.graph.out_edges(u) == graph.out_edges(u)
        endpoints = stats.json()["frontend"]["endpoints"]
        assert endpoints["/admin/update"] == {"requests": 2, "errors": 1}
        from repro.service import ShardedQueryService

        oracle = ShardedQueryService(world=world.rebuilt())
        try:
            for query, response in zip(queries, answers):
                assert response.status == 200
                expected = oracle.run_batch([query], algorithm="exact")[0]
                assert fingerprint(decode_route_result(response.json())) == fingerprint(
                    expected
                )
        finally:
            oracle.close()

    @pytest.mark.parametrize("tier", ["flat", "sharded"])
    def test_refused_batch_keeps_process_workers_in_step(self, tier):
        """Pool workers replay only accepted deltas: after a refused batch
        and a valid update through the front door, a process-backed
        service answers like a serial one that never saw the refusal."""
        engine, queries = random_instance(0)
        graph = engine.graph
        u, v = next(
            (u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u)
        )
        refused = {"ops": [{"op": "close_node", "node": u}, {"op": "close_node", "node": u}]}
        valid = {"ops": [{"op": "update_edge_cost", "u": u, "v": v, "objective": 9.0}]}
        batch = {"queries": [query_payload(query, "exact") for query in queries]}

        async def serve(backend, updates):
            subject = graph if tier == "flat" else MutableWorld(graph, num_cells=2)
            front = build_service(subject, tier="async", backend=backend, workers=2)
            app = KORApp(front)
            try:
                warm = await asgi_request(app, "POST", "/batch", batch)  # start the pool
                statuses = [
                    (await asgi_request(app, "POST", "/admin/update", update)).status
                    for update in updates
                ]
                answer = await asgi_request(app, "POST", "/batch", batch)
                assert warm.status == answer.status == 200
                return statuses, [
                    fingerprint(decode_route_result(result))
                    for result in answer.json()["results"]
                ]
            finally:
                await front.close()

        statuses, served = asyncio.run(serve("process", [refused, valid]))
        assert statuses == [400, 200]
        _statuses, expected = asyncio.run(serve("serial", [valid]))
        assert served == expected

    def test_unscalable_weights_are_refused_and_scaled_queries_keep_serving(self):
        """theta = eps * o_min * b_min / Delta: a weight that would zero
        or overflow it is the admin op's error (400, nothing applied) —
        never a reason to refuse every later osscaling/bucketbound query."""
        from repro.graph.mutation import MAX_EDGE_WEIGHT, MIN_EDGE_WEIGHT

        app, world, queries = self._fresh()
        graph = world.graph
        u, v = next(
            (u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u)
        )

        def recost(objective, budget):
            op = {"op": "update_edge_cost", "u": u, "v": v, "objective": objective, "budget": budget}
            return asgi_request(app, "POST", "/admin/update", {"ops": [op]})

        async def drive():
            refused = [
                await recost(5e-324, 5e-324),
                await recost(1e-300, 1.0),
                await recost(1.0, 1e308),
            ]
            state = world.epoch, world.graph
            edges = [
                await recost(MIN_EDGE_WEIGHT, MIN_EDGE_WEIGHT),
                await recost(MAX_EDGE_WEIGHT, MAX_EDGE_WEIGHT),
            ]
            scaled = [
                await asgi_request(app, "POST", "/query", query_payload(query, algorithm))
                for algorithm in ("osscaling", "bucketbound")
                for query in queries
            ]
            stats = await asgi_request(app, "GET", "/stats")
            await app.frontend.close()
            return refused, state, edges, scaled, stats

        refused, state, edges, scaled, stats = asyncio.run(drive())
        for response in refused:
            assert response.status == 400
            error = response.json()["error"]
            assert error["type"] == "MutationError"
            assert "must lie in [1e-09, 1000000000.0]" in error["message"]
        assert state == (0, graph)
        assert [response.status for response in edges] == [200, 200]
        assert world.epoch == 2
        assert world.graph.edge(u, v) == (MAX_EDGE_WEIGHT, MAX_EDGE_WEIGHT)
        assert [response.status for response in scaled] == [200] * len(scaled)
        endpoints = stats.json()["frontend"]["endpoints"]
        assert endpoints["/admin/update"] == {"requests": 5, "errors": 3}

    def test_updates_pass_while_the_app_drains(self):
        """Operators must be able to push updates during drain: the
        endpoint is deliberately outside the work-admission budget."""
        app, world, queries = self._fresh()
        app.begin_drain()

        async def drive():
            refused = await asgi_request(
                app, "POST", "/query", query_payload(queries[0], "exact")
            )
            accepted = await asgi_request(
                app,
                "POST",
                "/admin/update",
                {"ops": [{"op": "update_keywords", "node": 1, "keywords": []}]},
            )
            await app.frontend.close()
            return refused, accepted

        refused, accepted = asyncio.run(drive())
        assert refused.status == 503
        assert accepted.status == 200
        assert accepted.json()["epoch"] == world.epoch == 1

    def test_frontend_without_mutation_support_maps_to_400(self):
        """A front over a service with no ``apply_ops`` answers 400,
        not 500 — the transport stays honest about capability."""
        engine, _queries = random_instance(1)

        class NoMutation:
            """Delegating proxy that hides the mutation API."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name in ("apply_ops", "epoch"):
                    raise AttributeError(name)
                return getattr(self._inner, name)

        async def drive():
            async with AsyncQueryService(NoMutation(QueryService(engine))) as front:
                app = KORApp(front)
                response = await asgi_request(
                    app,
                    "POST",
                    "/admin/update",
                    {"ops": [{"op": "close_node", "node": 0}]},
                )
                health = await asgi_request(app, "GET", "/healthz")
                return response, health

        response, health = asyncio.run(drive())
        assert response.status == 400
        assert response.json()["error"]["type"] == "QueryError"
        # No epoch to report either — the field stays additive.
        assert "epoch" not in health.json()
