"""The loop-native socket host, driven with raw bytes over real sockets.

What :class:`~repro.server.stdlib.StdlibServer` owes any ASGI app:
requests answered in order on a kept-alive connection however the bytes
are segmented; every refusal (bad head, bad or oversized
``Content-Length``, oversized head) in the JSON error shape with
``Connection: close`` and the body never read; app crashes and silences
contained; concurrent socket clients coalescing and micro-batching like
in-process awaiters; and a ``close()`` that leaves no thread behind.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.server import KORApp, StdlibServer, http_request, stdlib
from repro.server.stdlib import MAX_BODY_BYTES, MAX_HEAD_BYTES
from repro.service import AsyncQueryService, QueryService

from tests.server.test_failure_modes import query_payload
from tests.server.test_http_differential import raw_exchange
from tests.service.test_differential import random_instance
from tests.service.test_frontend import SlowEngine

pytestmark = pytest.mark.timeout(120)


async def echo_app(scope, receive, send) -> None:
    """Answers with what it was asked: method, path, query, body size."""
    message = await receive()
    body = json.dumps(
        {
            "method": scope["method"],
            "path": scope["path"],
            "query": scope["query_string"].decode("latin-1"),
            "http_version": scope["http_version"],
            "bytes": len(message["body"]),
        }
    ).encode()
    await send({"type": "http.response.start", "status": 200, "headers": []})
    await send({"type": "http.response.body", "body": body})


def read_response(reader) -> tuple[int, dict, bytes]:
    """One ``Content-Length``-framed response off a ``makefile('rb')``."""
    status_line = reader.readline()
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return (
        int(status_line.split()[1]),
        headers,
        reader.read(int(headers.get("content-length", 0))),
    )


def until_closed(address, request: bytes) -> bytes:
    """Send *request*; every byte the server answers before it hangs up."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


@pytest.fixture()
def echo():
    with StdlibServer(echo_app) as server:
        yield server


class TestFraming:
    def test_status_line_and_content_length(self, echo):
        data = until_closed(
            echo.address, b"GET /a?b=1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n") == [b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(body)]
        assert json.loads(body) == {
            "method": "GET", "path": "/a", "query": "b=1", "http_version": "1.1", "bytes": 0,
        }  # fmt: skip

    def test_pipelined_requests_are_answered_in_order_on_one_socket(self, echo):
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            sock.sendall(
                b"POST /first HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabc"
                b"POST /second HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nabcde"
            )
            with sock.makefile("rb") as reader:
                answers = [json.loads(read_response(reader)[2]) for _ in range(2)]
        assert [(a["path"], a["bytes"]) for a in answers] == [("/first", 3), ("/second", 5)]

    def test_http11_keeps_the_connection_alive_by_default(self, echo):
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            with sock.makefile("rb") as reader:
                for path in (b"/one", b"/two", b"/three"):
                    sock.sendall(b"GET %b HTTP/1.1\r\nHost: t\r\n\r\n" % path)
                    status, headers, body = read_response(reader)
                    assert status == 200 and "connection" not in headers
                    assert json.loads(body)["path"] == path.decode()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /bye HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            b"GET /bye HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_and_http10_hang_up_after_the_answer(self, echo, request_bytes):
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            sock.sendall(request_bytes)
            with sock.makefile("rb") as reader:
                status, _headers, body = read_response(reader)
                assert status == 200 and json.loads(body)["path"] == "/bye"
                assert reader.read() == b""

    def test_head_byte_by_byte_and_body_in_three_segments(self, echo):
        head = b"POST /slow HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n"
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(head)):
                sock.sendall(head[index : index + 1])
            for segment in (b"abc", b"def", b"ghi"):
                time.sleep(0.01)
                sock.sendall(segment)
            with sock.makefile("rb") as reader:
                status, _headers, body = read_response(reader)
        assert status == 200
        assert json.loads(body) == {
            "method": "POST", "path": "/slow", "query": "", "http_version": "1.1", "bytes": 9,
        }  # fmt: skip

    def test_expect_100_continue_is_acknowledged_before_the_body(self, echo):
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            sock.sendall(
                b"POST /big HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
                b"Expect: 100-continue\r\n\r\n"
            )
            with sock.makefile("rb") as reader:
                assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert reader.readline() == b"\r\n"
                sock.sendall(b"ok")
                status, _headers, body = read_response(reader)
        assert status == 200 and json.loads(body)["bytes"] == 2

    def test_partial_delivery_is_linear(self):
        """A 1 MiB body arriving in 64 KiB segments (after a head that
        arrived byte by byte) is never re-scanned: the search for the
        head's end looks at each head byte a bounded number of times and
        at no body byte at all."""

        class CountingBuffer(bytearray):
            searched = 0

            def find(self, sub, start=0):
                CountingBuffer.searched += len(self) - start
                return super().find(sub, start)

        class Transport:
            def write(self, data):
                pass

            def get_extra_info(self, name):
                return ("127.0.0.1", 1)

        class Server:
            address = ("127.0.0.1", 2)
            _connections = set()
            _loop = asyncio.new_event_loop()

        try:
            connection = stdlib._Connection(Server)
            connection._buffer = CountingBuffer()
            connection.connection_made(Transport())
            head = b"POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % MAX_BODY_BYTES
            for index in range(len(head)):
                connection.data_received(head[index : index + 1])
            for _ in range(MAX_BODY_BYTES // 65536 - 1):
                connection.data_received(b" " * 65536)
            assert connection._task is None and len(connection._buffer) == MAX_BODY_BYTES - 65536
            assert CountingBuffer.searched <= 4 * len(head)
            connection.data_received(b" " * 65536)
            assert connection._task is not None and not connection._buffer
            connection._task.cancel()
            Server._loop.run_until_complete(asyncio.sleep(0))
        finally:
            Server._loop.close()


class TestRefusals:
    """Answered by the host itself, before the app — and before a body
    byte is read: JSON error shape, ``Connection: close``, hang up
    (``raw_exchange`` only returns once the server has closed)."""

    def test_oversized_head_is_a_431(self, echo):
        filler = b"X-Filler: " + b"a" * 1000 + b"\r\n"
        head = b"GET / HTTP/1.1\r\n" + filler * (MAX_HEAD_BYTES // len(filler) + 1)
        status, headers, payload = raw_exchange(echo, head)  # the blank line never comes
        assert status == 431
        assert headers["connection"] == "close"
        assert payload["error"]["type"] == "HeaderTooLarge"

    def test_a_head_of_exactly_the_limit_is_served(self, echo):
        head = b"GET /fits HTTP/1.1\r\nConnection: close\r\nX-Filler: "
        head += b"a" * (MAX_HEAD_BYTES - len(head))
        assert len(head) == MAX_HEAD_BYTES
        with socket.create_connection(echo.address, timeout=10.0) as sock:
            sock.sendall(head + b"\r\n\r\n")
            with sock.makefile("rb") as reader:
                status, _headers, body = read_response(reader)
        assert status == 200 and json.loads(body)["path"] == "/fits"

    @pytest.mark.parametrize(
        "head, complaint",
        [
            (b"GET /query\r\n\r\n", "request line"),
            (b"GET  /query HTTP/1.1\r\n\r\n", "request line"),
            (b"\r\n\r\n", "request line"),
            (b"GET /query HTTP/2.0\r\n\r\n", "request line"),
            (b"GET /query SPDY/1.1\r\n\r\n", "request line"),
            (b"GET /query HTTP/1.1\r\nHost t\r\n\r\n", "header line"),
            (b"GET /query HTTP/1.1\r\n: empty-name\r\n\r\n", "header line"),
            (b"GET /query HTTP/1.1\r\nHost : t\r\n\r\n", "header line"),
        ],
    )
    def test_malformed_heads_are_400s(self, echo, head, complaint):
        status, headers, payload = raw_exchange(echo, head)
        assert status == 400
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert payload["error"]["type"] == "BadRequest"
        assert complaint in payload["error"]["message"]

    def test_a_refusal_does_not_wait_for_the_announced_body(self, echo):
        """413 while the socket is still open and no body byte was sent."""
        status, headers, payload = raw_exchange(
            echo,
            b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        )
        assert status == 413 and headers["connection"] == "close"
        assert payload["error"]["type"] == "PayloadTooLarge"

    def test_the_first_content_length_wins_and_is_validated(self, echo):
        status, _headers, payload = raw_exchange(
            echo,
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\nContent-Length: 0\r\n\r\n",
        )
        assert status == 400 and "'nope'" in payload["error"]["message"]


class TestAppFailures:
    """What the app gets wrong stays inside one connection."""

    def serve_one(self, app, request=b"GET / HTTP/1.1\r\nHost: t\r\n\r\n") -> bytes:
        with StdlibServer(app) as server:
            return until_closed(server.address, request)

    def test_a_crash_before_the_response_starts_is_a_json_500(self):
        async def app(scope, receive, send):
            raise KeyError("boom")

        head, _, body = self.serve_one(app).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 Internal Server Error\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": {"type": "KeyError", "message": "'boom'"}}

    def test_returning_without_a_response_is_a_500(self):
        async def app(scope, receive, send):
            await send({"type": "http.response.start", "status": 200, "headers": []})

        body = self.serve_one(app).partition(b"\r\n\r\n")[2]
        assert json.loads(body)["error"] == {
            "type": "RuntimeError",
            "message": "ASGI app returned without completing the response",
        }

    def test_a_body_before_the_start_is_a_500(self):
        async def app(scope, receive, send):
            await send({"type": "http.response.body", "body": b"early"})

        body = self.serve_one(app).partition(b"\r\n\r\n")[2]
        assert "expected http.response.start" in json.loads(body)["error"]["message"]

    def test_a_crash_mid_stream_closes_the_connection(self):
        async def app(scope, receive, send):
            await send({"type": "http.response.start", "status": 200, "headers": []})
            await send({"type": "http.response.body", "body": b"partial", "more_body": True})
            raise RuntimeError("lost the plot")

        data = self.serve_one(app)
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert data.endswith(b"7\r\npartial\r\n")  # no terminating chunk: visibly truncated

    def test_a_silent_app_is_cut_off_with_a_500_at_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(stdlib, "_MESSAGE_TIMEOUT", 0.2)
        cancelled = threading.Event()

        async def app(scope, receive, send):
            try:
                await asyncio.sleep(30)
            except asyncio.CancelledError:
                cancelled.set()
                raise

        begin = time.monotonic()
        head, _, body = self.serve_one(app).partition(b"\r\n\r\n")
        assert time.monotonic() - begin < 5.0
        assert head.startswith(b"HTTP/1.1 500 ")
        assert json.loads(body)["error"]["type"] == "TimeoutError"
        assert cancelled.wait(5.0)

    def test_a_stream_that_stalls_is_hung_up_on_at_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(stdlib, "_MESSAGE_TIMEOUT", 0.2)

        async def app(scope, receive, send):
            await send({"type": "http.response.start", "status": 200, "headers": []})
            for _ in range(3):  # each message restarts the wait
                await asyncio.sleep(0.12)
                await send({"type": "http.response.body", "body": b"tick", "more_body": True})
            await asyncio.sleep(30)

        begin = time.monotonic()
        data = self.serve_one(app)
        assert time.monotonic() - begin < 5.0
        assert data.count(b"4\r\ntick\r\n") == 3 and not data.endswith(b"0\r\n\r\n")


class TestServingSemantics:
    """The module docstring's claim — the transport preserves the serving
    semantics — as a test: concurrent *socket* clients share flights and
    waves exactly as concurrent in-process awaiters do."""

    CLIENTS = 64

    def storm(self, budgets) -> tuple[list, dict]:
        """One socket client per budget, all at once, same query otherwise."""
        engine, queries = random_instance(0)
        payloads = [{**query_payload(queries[0]), "budget_limit": budget} for budget in budgets]
        front = AsyncQueryService(
            QueryService(SlowEngine(engine, delay_seconds=0.02), cache_capacity=0),
            window_seconds=0.05,
        )
        with StdlibServer(KORApp(front), frontend=front) as server:
            host, port = server.address

            async def clients():
                return await asyncio.gather(
                    *(http_request(host, port, "POST", "/query", payload) for payload in payloads)
                )

            responses = asyncio.run(clients())
            stats = asyncio.run(http_request(host, port, "GET", "/stats")).json()
        assert [response.status for response in responses] == [200] * len(payloads)
        return responses, stats

    def test_identical_queries_coalesce_onto_shared_flights(self):
        responses, stats = self.storm([4.0] * self.CLIENTS)
        assert len({response.body for response in responses}) == 1
        assert stats["frontend"]["coalesced"] > 0
        assert stats["scheduling"]["flights"] < self.CLIENTS

    def test_distinct_queries_ride_fewer_waves_than_requests(self):
        _responses, stats = self.storm([4.0 + index / 100 for index in range(self.CLIENTS)])
        assert stats["scheduling"]["flights"] == self.CLIENTS
        assert 0 < stats["scheduling"]["waves"] < self.CLIENTS


class TestLifecycle:
    def test_address_is_known_before_start_and_close_releases_it(self):
        server = StdlibServer(echo_app)
        host, port = server.address
        assert host == "127.0.0.1" and port > 0
        assert server.url == f"http://127.0.0.1:{port}"
        server.close()  # never started: nothing to drain, nothing left open
        server.close()
        assert server.address == (host, port)
        with socket.socket() as probe:
            assert probe.connect_ex((host, port)) != 0

    def test_close_with_idle_keep_alive_connections_leaves_no_thread(self):
        engine, queries = random_instance(0)
        before = set(threading.enumerate())
        front = AsyncQueryService(QueryService(engine, cache_capacity=16), close_service=True)
        server = StdlibServer(KORApp(front), frontend=front, drain_seconds=2.0).start()
        idle = [socket.create_connection(server.address, timeout=10.0) for _ in range(3)]
        try:
            body = json.dumps(query_payload(queries[0])).encode()
            for sock in idle:  # one answered request each, then left open (the executor ran)
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(body)
                    + body
                )
                with sock.makefile("rb") as reader:
                    assert read_response(reader)[0] == 200
            assert set(threading.enumerate()) - before
            begin = time.monotonic()
            server.close()
            assert time.monotonic() - begin < 2.0
            assert set(threading.enumerate()) == before
            for sock in idle:
                assert sock.recv(1) == b""  # hung up on, not leaked
        finally:
            for sock in idle:
                sock.close()

    def test_close_drains_the_app_then_the_frontend_on_the_servers_loop(self):
        events: list[str] = []

        class Frontend:
            async def close(self):
                asyncio.get_running_loop()  # on a loop at all
                events.append(f"frontend.close on {threading.current_thread().name}")

        class App:
            pending = 0

            def begin_drain(self):
                events.append("app.begin_drain")

            async def __call__(self, scope, receive, send):
                await echo_app(scope, receive, send)

        with StdlibServer(App(), frontend=Frontend()) as server:
            assert asyncio.run(http_request(*server.address, "GET", "/x")).status == 200
        assert events == ["app.begin_drain", "frontend.close on kor-server-loop"]
