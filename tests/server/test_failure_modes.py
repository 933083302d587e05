"""The front door under failure: deadlines, shedding, draining, health.

Drives :class:`~repro.server.app.KORApp` through the in-process ASGI
client (and :class:`~repro.server.stdlib.StdlibServer` for the drain
protocol) and pins the failure-containment contract of the HTTP tier:

* a request whose deadline expires answers **504** promptly — whether
  the deadline came as ``timeout``, ``timeout_ms`` or the
  ``x-kor-timeout-ms`` header — and the body form wins over the header;
* requests beyond the pending budget are **shed** with 503 +
  ``Retry-After`` before any engine work, counted in ``shed``;
* :meth:`~repro.server.app.KORApp.begin_drain` refuses new work while
  ``/healthz`` reports ``draining`` and read endpoints stay up;
* ``/healthz`` reports ``degraded`` while a lane breaker is open;
* a client that hangs up mid-request gives its admission slot back at
  once, and the host stays silent about it.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time

import pytest

from repro.server import (
    KORApp,
    StdlibServer,
    asgi_request,
    encode_route_result,
    http_request,
    serve,
)
from repro.service import AsyncQueryService, QueryService

from tests.service.test_differential import random_instance
from tests.service.test_frontend import SlowEngine

pytestmark = pytest.mark.timeout(120)


def query_payload(query, **extra) -> dict:
    return {
        "source": query.source,
        "target": query.target,
        "keywords": list(query.keywords),
        "budget_limit": query.budget_limit,
        **extra,
    }


def wait_until(predicate, timeout: float) -> bool:
    """Poll *predicate* (every 5 ms) until it holds or *timeout* runs out."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def drive(coro_factory, engine, **front_kwargs):
    """Run *coro_factory(app)* against a fresh app over *engine*."""
    max_pending = front_kwargs.pop("max_pending", None)

    async def main():
        front = AsyncQueryService(QueryService(engine, cache_capacity=0), **front_kwargs)
        app_kwargs = {} if max_pending is None else {"max_pending": max_pending}
        app = KORApp(front, **app_kwargs)
        try:
            return await coro_factory(app)
        finally:
            await front.close()

    return asyncio.run(main())


async def request_with_headers(app, payload: dict, headers: list, path: str = "/query") -> "object":
    """Like ``asgi_request`` but with caller-controlled headers."""
    body = json.dumps(payload).encode()
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": "POST",
        "scheme": "http",
        "path": path,
        "raw_path": path.encode(),
        "query_string": b"",
        "root_path": "",
        "headers": [(b"content-type", b"application/json")] + headers,
        "client": ("127.0.0.1", 0),
        "server": ("inproc", 0),
    }
    delivered = False

    async def receive():
        nonlocal delivered
        if not delivered:
            delivered = True
            return {"type": "http.request", "body": body, "more_body": False}
        return await asyncio.get_running_loop().create_future()

    messages = []

    async def send(message):
        messages.append(message)

    await app(scope, receive, send)
    status = messages[0]["status"]
    payload_bytes = b"".join(m.get("body", b"") for m in messages[1:])
    # One JSON document, or the lines of an NDJSON stream.
    documents = [json.loads(line) for line in payload_bytes.splitlines()]
    return status, documents[0] if len(documents) == 1 else documents or None


class TestDeadlines:
    def test_expired_deadline_answers_504_promptly(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.3)

        async def scenario(app):
            begin = time.monotonic()
            response = await asgi_request(
                app, "POST", "/query", query_payload(queries[0], timeout=0.05)
            )
            elapsed = time.monotonic() - begin
            assert response.status == 504
            assert response.json()["error"]["type"] in (
                "TimeoutError",
                "DeadlineExceeded",
            )
            # Promptness: well under the engine's 0.3 s stall.
            assert elapsed < 2.0

        drive(scenario, slow)

    def test_timeout_ms_is_the_same_deadline(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.3)

        async def scenario(app):
            response = await asgi_request(
                app, "POST", "/query", query_payload(queries[0], timeout_ms=50)
            )
            assert response.status == 504

        drive(scenario, slow)

    def test_timeout_and_timeout_ms_together_are_rejected(self):
        engine, queries = random_instance(0)

        async def scenario(app):
            response = await asgi_request(
                app,
                "POST",
                "/query",
                query_payload(queries[0], timeout=1.0, timeout_ms=1000),
            )
            assert response.status == 400
            assert "not both" in response.json()["error"]["message"]

        drive(scenario, engine)

    def test_header_deadline_applies_when_body_has_none(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.3)

        async def scenario(app):
            status, payload = await request_with_headers(
                app, query_payload(queries[0]), [(b"x-kor-timeout-ms", b"50")]
            )
            assert status == 504

        drive(scenario, slow)

    def test_body_timeout_wins_over_the_header(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.1)

        async def scenario(app):
            status, payload = await request_with_headers(
                app,
                query_payload(queries[0], timeout=30.0),
                [(b"x-kor-timeout-ms", b"1")],
            )
            assert status == 200  # a winning 1 ms header would be a 504

        drive(scenario, slow)

    def test_malformed_header_is_a_400(self):
        engine, queries = random_instance(0)

        async def scenario(app):
            for bad in (b"soon", b"-5", b"0"):
                status, payload = await request_with_headers(
                    app, query_payload(queries[0]), [(b"x-kor-timeout-ms", bad)]
                )
                assert status == 400
                assert "x-kor-timeout-ms" in payload["error"]["message"]

        drive(scenario, engine)

    def test_mid_search_expiry_stops_the_engine_with_a_504(self):
        """The deadline reaches the search loop: an exhaustive search
        that would run for seconds answers 504 within the deadline plus
        scheduling slack."""
        from repro.core.engine import KOREngine
        from repro.core.query import KORQuery
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_node(keywords=["rare"])
        for _ in range(6):
            builder.add_node()
        for u in range(7):
            for v in range(7):
                if u != v:
                    builder.add_edge(u, v, 1.0, 1.0)
        engine = KOREngine(builder.build())
        query = KORQuery(1, 2, ("rare",), 9.0)

        async def scenario(app):
            begin = time.monotonic()
            response = await asgi_request(
                app,
                "POST",
                "/query",
                query_payload(query, timeout_ms=50, algorithm="exhaustive"),
            )
            elapsed = time.monotonic() - begin
            assert response.status == 504
            assert elapsed < 2.0

        drive(scenario, engine)

    def test_batch_slots_time_out_individually(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.3)

        async def scenario(app):
            response = await asgi_request(
                app,
                "POST",
                "/batch",
                {
                    "timeout": 0.05,
                    "queries": [query_payload(q) for q in queries[:2]],
                },
            )
            assert response.status == 200  # the envelope survives
            results = response.json()["results"]
            assert len(results) == 2
            assert all("error" in item for item in results)

        drive(scenario, slow)


    def test_mid_wave_expiry_keeps_finished_members_and_stops_the_rest(self):
        """One ``/batch``, one shared timeout, one wave of five stalled
        members.  The deadline runs out mid-wave: every slot answers at
        expiry (the envelope does not wait for the wave), the members
        that had finished keep their results (they are in the cache,
        exact), the running member fails once its stall ends and every
        later member is refused before its engine run starts."""
        engine, queries = random_instance(0)
        members = list(dict.fromkeys(queries))[:5]
        delay, timeout = 0.2, 0.5
        slow = SlowEngine(engine, delay_seconds=delay)

        async def main():
            service = QueryService(slow, cache_capacity=64)
            front = AsyncQueryService(service)
            app = KORApp(front)
            try:
                begin = time.monotonic()
                response = await asgi_request(
                    app,
                    "POST",
                    "/batch",
                    {"timeout": timeout, "queries": [query_payload(q) for q in members]},
                )
                elapsed = time.monotonic() - begin
                assert response.status == 200
                results = response.json()["results"]
                assert [item["error"]["type"] for item in results] == ["TimeoutError"] * 5
                # Promptness: answered at expiry, not after 5 stalls.
                assert elapsed < timeout + delay

                # The wave winds down within one stall of expiry.
                await asyncio.sleep(2 * delay)
                finished = len(service.cache)
                assert 1 <= finished < len(members)
                assert slow.runs == finished + 1  # + the member expiry caught running
                snapshot = service.snapshot()
                assert (snapshot.queries, snapshot.errors) == (finished, len(members) - finished)

                # The finished members' results survived, exact.
                again = await asgi_request(
                    app,
                    "POST",
                    "/batch",
                    {"queries": [query_payload(q) for q in members[:finished]]},
                )
                assert slow.runs == finished + 1  # served from the cache
                for item, query in zip(again.json()["results"], members):
                    assert item == encode_route_result(engine.run(query), epoch=front.epoch)
            finally:
                await front.close()

        asyncio.run(main())


class TestTopKStream:
    """``/topk/stream`` honours deadlines and bounds ``k`` (a huge ``k``
    switches k-domination off; nothing can cancel the worker thread but
    the search loop's own checkpoint)."""

    @staticmethod
    def long_topk():
        """A complete graph whose k=100 search takes >1 000 pops (~0.1 s)."""
        import random

        from repro.core.engine import KOREngine
        from repro.core.query import KORQuery
        from repro.graph.builder import GraphBuilder

        rng = random.Random(1)
        builder = GraphBuilder()
        builder.add_node(keywords=["rare"])
        for _ in range(9):
            builder.add_node()
        for u in range(10):
            for v in range(10):
                if u != v:
                    builder.add_edge(u, v, rng.uniform(1, 2), rng.uniform(1, 2))
        return KOREngine(builder.build()), KORQuery(1, 2, ("rare",), 12.0)

    def test_asgi_deadline_is_a_504_from_every_spelling(self):
        from repro.server.schema import MAX_TOPK

        engine, query = self.long_topk()
        plain = engine.top_k(1, 2, ("rare",), 12.0, MAX_TOPK, algorithm="osscaling")
        assert plain.stats.loops > 1000  # far beyond a checkpoint stride

        async def scenario(app):
            base = {**query_payload(query, algorithm="osscaling"), "k": MAX_TOPK}
            header = [(b"x-kor-timeout-ms", b"1")]
            for body, headers, expected in (
                ({**base, "timeout_ms": 1}, [], 504),
                ({**base, "timeout": 0.001}, [], 504),
                (base, header, 504),
                # The body wins over the header; both body forms are a 400.
                ({**base, "timeout": 60.0}, header, 200),
                ({**base, "timeout": 1.0, "timeout_ms": 5}, [], 400),
            ):
                begin = time.monotonic()
                status, _payload = await request_with_headers(
                    app, body, headers, "/topk/stream"
                )
                assert status == expected, body
                assert time.monotonic() - begin < 5.0
                assert app.pending == 0
            return app.frontend.snapshot().endpoints["/topk/stream"]

        assert drive(scenario, engine) == {"requests": 5, "errors": 4}

    def test_oversized_k_is_a_400(self):
        from repro.server.schema import MAX_TOPK

        engine, query = self.long_topk()

        async def scenario(app):
            body = {**query_payload(query), "k": MAX_TOPK + 1}
            status, payload = await request_with_headers(app, body, [], "/topk/stream")
            assert status == 400 and payload["error"]["type"] == "WireError"
            assert str(MAX_TOPK) in payload["error"]["message"]
            assert app.pending == 0
            return app.frontend.snapshot().endpoints["/topk/stream"]

        assert drive(scenario, engine) == {"requests": 1, "errors": 1}

    def test_socket_answers_504_and_400_and_frees_the_slot(self):
        from repro.server.schema import MAX_TOPK

        engine, query = self.long_topk()
        base = query_payload(query, algorithm="bucketbound")
        with serve(QueryService(engine, cache_capacity=0)) as server:
            def post(body):
                return asyncio.run(http_request(*server.address, "POST", "/topk/stream", body))

            begin = time.monotonic()
            late = post({**base, "k": MAX_TOPK, "timeout_ms": 1})
            assert late.status == 504 and time.monotonic() - begin < 5.0
            assert late.json()["error"]["type"] == "DeadlineExceeded"
            assert post({**base, "k": 2000, "timeout_ms": 1}).status == 400
            assert post({**base, "k": 3}).status == 200
            health = asyncio.run(http_request(*server.address, "GET", "/healthz")).json()
            assert health["status"] == "ok" and health["pending"] == 0
            stats = asyncio.run(http_request(*server.address, "GET", "/stats")).json()
            assert stats["frontend"]["endpoints"]["/topk/stream"] == {"requests": 3, "errors": 2}


class TestShedding:
    def test_over_budget_requests_are_shed(self):
        engine, queries = random_instance(1)
        slow = SlowEngine(engine, delay_seconds=0.2)

        async def scenario(app):
            first = asyncio.ensure_future(
                asgi_request(app, "POST", "/query", query_payload(queries[0]))
            )
            await asyncio.sleep(0.05)  # let it be admitted
            assert app.pending == 1
            second = await asgi_request(
                app, "POST", "/query", query_payload(queries[1])
            )
            assert second.status == 503
            assert second.headers.get("retry-after") == "1"
            assert second.json()["error"]["type"] == "Overloaded"

            health = (await asgi_request(app, "GET", "/healthz")).json()
            assert health["shed"] == 1
            assert health["max_pending"] == 1
            assert health["status"] == "ok"  # shedding is not degradation

            assert (await first).status == 200
            assert app.frontend.snapshot().shed == 1

        drive(scenario, slow, max_pending=1)

    def test_read_endpoints_are_never_shed(self):
        engine, queries = random_instance(1)
        slow = SlowEngine(engine, delay_seconds=0.2)

        async def scenario(app):
            flight = asyncio.ensure_future(
                asgi_request(app, "POST", "/query", query_payload(queries[0]))
            )
            await asyncio.sleep(0.05)
            assert (await asgi_request(app, "GET", "/healthz")).status == 200
            assert (await asgi_request(app, "GET", "/stats")).status == 200
            assert (await flight).status == 200

        drive(scenario, slow, max_pending=1)

    def test_max_pending_must_be_positive(self):
        engine, _queries = random_instance(1)

        async def scenario(app):
            pass  # construction is the test

        with pytest.raises(Exception, match="max_pending"):
            drive(scenario, engine, max_pending=0)


class TestDraining:
    def test_begin_drain_refuses_new_work(self):
        engine, queries = random_instance(2)

        async def scenario(app):
            assert not app.draining
            app.begin_drain()
            assert app.draining
            response = await asgi_request(
                app, "POST", "/query", query_payload(queries[0])
            )
            assert response.status == 503
            assert response.headers.get("retry-after") == "1"
            assert response.json()["error"]["type"] == "Draining"

            health = (await asgi_request(app, "GET", "/healthz")).json()
            assert health["status"] == "draining"
            # Reads stay up for the host doing the draining.
            assert (await asgi_request(app, "GET", "/stats")).status == 200

        drive(scenario, engine)

    def test_stdlib_server_drains_before_stopping(self):
        engine, queries = random_instance(2)
        server = serve(QueryService(engine, cache_capacity=16), drain_seconds=2.0)

        def request(method, path, payload=None):
            host, port = server.address
            return asyncio.run(http_request(host, port, method, path, payload))

        try:
            ok = request("POST", "/query", query_payload(queries[0]))
            assert ok.status == 200
            assert server.drain() is True
            refused = request("POST", "/query", query_payload(queries[1]))
            assert refused.status == 503
            health = request("GET", "/healthz")
            assert health.json()["status"] == "draining"
        finally:
            server.close()


class TestClientHangUp:
    """A peer that resets mid-request used to keep its admission slot
    (and a handler thread) for the whole search, after which
    ``socketserver`` printed a ``ConnectionResetError`` traceback."""

    @pytest.mark.parametrize(
        "window_seconds, reset",
        [(0.3, True), (0.0, True), (0.3, False)],
        ids=("reset-while-queued", "reset-while-dispatched", "plain-close-while-queued"),
    )
    def test_a_peer_that_hangs_up_frees_its_slot_at_once_and_silently(
        self, window_seconds, reset, capfd
    ):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=1.0)
        front = AsyncQueryService(
            QueryService(slow, cache_capacity=0), window_seconds=window_seconds
        )
        app = KORApp(front)
        body = json.dumps(query_payload(queries[0])).encode()
        with StdlibServer(app, frontend=front) as server:
            sock = socket.create_connection(server.address, timeout=10.0)
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(body) + body
            )
            assert wait_until(lambda: app.pending == 1, 5.0)
            if reset:  # SO_LINGER 0: close() sends a RST, not a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            assert wait_until(lambda: app.pending == 0, 0.5)  # well inside the 1 s search alone
            queued = window_seconds > 0
            # An undispatched flight nobody awaits is abandoned, never searched.
            assert front.scheduling_stats()["abandoned_flights"] == (1 if queued else 0)
            time.sleep(0.35)
            assert slow.runs == (0 if queued else 1)
            # The server is none the worse for it.
            assert asyncio.run(http_request(*server.address, "GET", "/healthz")).status == 200
        captured = capfd.readouterr()
        assert captured.err == "" and captured.out == ""


class _OpenBreakerBackend:
    """What a process backend with one open lane reports."""

    def breaker_stats(self) -> dict:
        return {
            "opened": 1,
            "closed": 0,
            "half_open_probes": 0,
            "short_circuits": 2,
            "lanes": [
                {"lane": 0, "state": "open", "failures": 3, "probing": False},
                {"lane": 1, "state": "closed", "failures": 0, "probing": False},
            ],
        }


class TestHealthz:
    def test_reports_degraded_while_a_breaker_is_open(self):
        engine, _queries = random_instance(3)
        service = QueryService(engine, cache_capacity=0)
        service._backend = _OpenBreakerBackend()

        async def main():
            front = AsyncQueryService(service)
            try:
                return await asgi_request(KORApp(front), "GET", "/healthz")
            finally:
                await front.close()

        response = asyncio.run(main())
        payload = response.json()
        assert payload["status"] == "degraded"
        assert payload["breakers"]["lanes"][0]["state"] == "open"
        assert payload["breakers"]["short_circuits"] == 2

    def test_plain_service_is_ok_without_breakers(self):
        engine, _queries = random_instance(3)

        async def scenario(app):
            payload = (await asgi_request(app, "GET", "/healthz")).json()
            assert payload["status"] == "ok"
            assert "breakers" not in payload
            assert payload["pending"] == 0

        drive(scenario, engine)


class TestPathologicalBudgets:
    """ROADMAP item E: a budget no search can scale by is the client's
    error (400), never a 500 — ``1e308`` made ``floor(o / theta)``
    overflow under the scaling algorithms, and ``json.loads`` lets the
    non-JSON literal ``Infinity`` (and integers beyond float range) in."""

    HUGE = {"1e308": 1e308, "Infinity": float("inf"), "10**400": 10**400, "NaN": float("nan")}

    @staticmethod
    def assert_refused(status, payload, name):
        assert status == 400, (name, payload)
        assert set(payload) == {"error"} and set(payload["error"]) == {"type", "message"}
        assert payload["error"]["type"] == ("QueryError" if name == "1e308" else "WireError")
        assert "budget" in payload["error"]["message"]

    def test_asgi_answers_400_counts_the_error_and_frees_the_slot(self):
        engine, queries = random_instance(0)

        async def scenario(app):
            for algorithm in ("bucketbound", "osscaling"):
                for name, budget in self.HUGE.items():
                    body = {**query_payload(queries[0]), "budget_limit": budget}
                    status, payload = await request_with_headers(
                        app, {**body, "algorithm": algorithm}, []
                    )
                    self.assert_refused(status, payload, name)
                    assert app.pending == 0
            # The algorithms that never scale keep answering such a budget.
            for algorithm in ("greedy", "exact"):
                body = {**query_payload(queries[0]), "budget_limit": 1e308}
                status, payload = await request_with_headers(
                    app, {**body, "algorithm": algorithm}, []
                )
                assert status == 200 and payload["schema"] == "kor.route_result.v1"
            return app.frontend.snapshot().endpoints["/query"]

        assert drive(scenario, engine) == {"requests": 10, "errors": 8}

    def test_socket_answers_400_counts_the_error_and_frees_the_slot(self):
        from tests.server.test_stdlib_host import read_response  # imports this module

        engine, queries = random_instance(0)
        with serve(QueryService(engine, cache_capacity=0)) as server:
            for name, budget in self.HUGE.items():
                body = json.dumps({**query_payload(queries[0]), "budget_limit": budget}).encode()
                with socket.create_connection(server.address, timeout=10.0) as sock:
                    sock.sendall(
                        b"POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body) + body
                    )
                    status, headers, answer = read_response(sock.makefile("rb"))
                assert headers["content-type"] == "application/json"
                self.assert_refused(status, json.loads(answer), name)
            health = asyncio.run(http_request(*server.address, "GET", "/healthz")).json()
            assert health["status"] == "ok" and health["pending"] == 0
            stats = asyncio.run(http_request(*server.address, "GET", "/stats")).json()
            assert stats["frontend"]["endpoints"]["/query"] == {"requests": 4, "errors": 4}

    def test_library_callers_get_the_same_refusal(self):
        from repro.core.query import KORQuery
        from repro.exceptions import QueryError

        engine, queries = random_instance(0)
        query = queries[0]
        huge = KORQuery(query.source, query.target, query.keywords, 1e308)
        for algorithm in ("bucketbound", "osscaling"):
            with pytest.raises(QueryError, match="too large to scale"):
                engine.run(huge, algorithm=algorithm)
        for algorithm in ("greedy", "exact"):
            assert engine.run(huge, algorithm=algorithm).query is huge
