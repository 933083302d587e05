"""Zero-dependency HTTP hosting for the ASGI app — stdlib only, loop-native.

No ASGI server ships with CPython, so this module provides the missing
piece: :class:`StdlibServer` hosts **any** ASGI 3 callable (in practice
:class:`repro.server.app.KORApp`) on one private asyncio event loop that
owns the sockets *and* runs the application:

* the constructor binds the listening socket (``address`` is known
  before ``start()``); one background thread runs the loop —
  ``loop.create_server`` over that socket plus every application
  coroutine (every ``AsyncQueryService`` flight, timer and wave), so a
  request crosses no thread between wire and app;
* each connection is an :class:`asyncio.Protocol` that buffers bytes,
  parses request line and headers once per request with plain string
  operations, validates head and ``Content-Length`` *before* a body
  byte is used (400 / 413 / 431 in the app's JSON error shape, then
  ``Connection: close``), builds the ASGI ``scope`` and runs the app as
  a task on the same loop; ``receive``/``send`` are in-loop closures
  and each body message is one ``transport.write``;
* a response whose first body message carries ``more_body=True`` is
  relayed with chunked transfer encoding (this is how ``/topk/stream``
  streams NDJSON); complete responses get a ``Content-Length``;
* HTTP/1.1 connections are kept alive and pipelined requests answered
  in order; a peer that hangs up mid-request cancels its request task,
  so the app releases its admission slot at once and an undispatched
  flight is abandoned instead of searched for nobody.

Because *all* requests live on one loop, concurrent HTTP callers
coalesce and micro-batch exactly as concurrent in-process awaiters do —
the transport preserves the serving semantics, it does not fork them.
Typical use::

    front = AsyncQueryService(QueryService(engine), adaptive_target_batch=8)
    with StdlibServer(KORApp(front), frontend=front) as server:
        host, port = server.address
        ...  # curl http://host:port/query

``port=0`` (default) binds an ephemeral port — tests and the CI load
smoke run many servers without collisions.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http import HTTPStatus

__all__ = ["MAX_BODY_BYTES", "StdlibServer"]

#: Largest request body the host accepts (100x a 64-query ``/batch``); a
#: larger ``Content-Length`` is refused with 413 before a byte of it is used.
MAX_BODY_BYTES = 1 << 20

MAX_HEAD_BYTES = 1 << 16  #: request line + headers; a larger head is refused with 431

#: Ceiling on the wait for the app's next ASGI message (covers the slowest waves).
_MESSAGE_TIMEOUT = 60.0

_REASONS = {status.value: status.phrase.encode("latin-1") for status in HTTPStatus}


def _head(status: int, headers: list[tuple[bytes, bytes]]) -> bytes:
    lines = [b"HTTP/1.1 %d %s" % (status, _REASONS.get(status, b""))]
    return b"\r\n".join(lines + [b"%b: %b" % tuple(field) for field in headers]) + b"\r\n\r\n"


class _Connection(asyncio.Protocol):
    """One client connection: requests in, the app's answers out, in order."""

    def __init__(self, server: "StdlibServer") -> None:
        self._server = server
        self._buffer = bytearray()
        #: Bytes already searched for the head's blank line: a head
        #: arriving in segments is never re-scanned (a body never is).
        self._scanned = 0
        self._request: tuple[dict, int, bool] | None = None  # parsed head awaiting its body
        self._task: asyncio.Task | None = None
        #: 0 nothing on the wire, 1 streaming chunks, 2 response complete.
        self._stage = 0

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._server._connections.discard(self)
        if self._task is not None:
            self._task.cancel()  # nobody left to answer: the app frees its slot now

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._task is None:
            self._advance()
        elif len(self._buffer) > MAX_HEAD_BYTES + MAX_BODY_BYTES:
            self._transport.pause_reading()  # a whole request is queued already

    def _advance(self) -> None:
        """Start the next request once its head and body are buffered."""
        buffer = self._buffer
        if self._request is None:
            end = buffer.find(b"\r\n\r\n", max(0, self._scanned - 3))
            self._scanned = len(buffer)
            if (end if end >= 0 else self._scanned) > MAX_HEAD_BYTES:
                return self._refuse(431, "HeaderTooLarge", f"head over {MAX_HEAD_BYTES} bytes")
            if end < 0:
                return
            self._request = self._parse_head(bytes(buffer[:end]))
            if self._request is None:
                return
            del buffer[: end + 4]
            self._scanned = 0
        scope, length, keep_alive = self._request
        if len(buffer) >= length:
            body = bytes(buffer[:length])
            del buffer[:length]
            self._request = None
            self._task = self._server._loop.create_task(self._respond(scope, body, keep_alive))

    def _parse_head(self, head: bytes) -> tuple[dict, int, bool] | None:
        """``(scope, content_length, keep_alive)`` — or ``None`` once a bad head
        has been refused (400 malformed, 413 oversized) before a body byte is used."""
        request_line, *lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return self._refuse(400, "BadRequest", f"malformed request line {request_line!r}")
        method, target, version = parts
        headers, fields = [], {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not (colon and name) or name != name.strip():
                return self._refuse(400, "BadRequest", f"malformed header line {line!r}")
            name, value = name.lower(), value.strip()
            headers.append((name.encode("latin-1"), value.encode("latin-1")))
            fields.setdefault(name, value)
        raw = fields.get("content-length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            message = f"Content-Length must be a non-negative integer, got {raw!r}"
            return self._refuse(400, "BadRequest", message)
        length = int(raw)
        if length > MAX_BODY_BYTES:
            message = f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            return self._refuse(413, "PayloadTooLarge", message)
        if fields.get("expect", "").lower() == "100-continue":
            self._transport.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version[5:],
            "method": method,
            "scheme": "http",
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "root_path": "",
            "headers": headers,
            "client": self._transport.get_extra_info("peername"),
            "server": self._server.address,
        }
        close = version != "HTTP/1.1" or "close" in fields.get("connection", "").lower()
        return scope, length, not close

    async def _respond(self, scope: dict, body: bytes, keep_alive: bool) -> None:
        """Run the app for one request and relay what it sends."""
        loop, write = self._server._loop, self._transport.write
        timer = loop.call_later(_MESSAGE_TIMEOUT, self._time_out)
        self._stage = 0
        requests = [{"type": "http.request", "body": body, "more_body": False}]
        start: dict | None = None  # held until the first body message picks the framing

        async def receive() -> dict:
            # Later calls are disconnect watchers: a lost connection cancels this task instead.
            return requests.pop() if requests else await loop.create_future()

        async def send(message: dict) -> None:
            nonlocal start, timer
            if start is None:
                if message["type"] != "http.response.start":
                    raise RuntimeError(f"expected http.response.start, got {message['type']!r}")
                start = message
                return
            chunk, more = message.get("body", b""), message.get("more_body", False)
            out = b""
            if self._stage == 0:
                headers = list(start.get("headers", ()))
                if more:
                    headers.append((b"Transfer-Encoding", b"chunked"))
                elif not any(name.lower() == b"content-length" for name, _ in headers):
                    headers.append((b"Content-Length", b"%d" % len(chunk)))
                out = _head(start["status"], headers)
                self._stage = 1 if more else 2
                if not more:
                    return write(out + chunk)
            if chunk:
                out += b"%x\r\n%b\r\n" % (len(chunk), chunk)
            if more:  # the ceiling is on the wait for each message
                timer.cancel()
                timer = loop.call_later(_MESSAGE_TIMEOUT, self._time_out)
            else:
                self._stage = 2
                out += b"0\r\n\r\n"
            write(out)

        try:
            await self._server._app(scope, receive, send)
            if self._stage != 2:
                raise RuntimeError("ASGI app returned without completing the response")
        except Exception as error:  # noqa: BLE001 - transport boundary
            keep_alive = False
            if self._stage == 0:
                self._refuse(500, type(error).__name__, str(error))
        finally:  # cancelled (peer gone, ceiling hit, server closing): nothing to answer
            timer.cancel()
        self._task = None
        if not keep_alive:
            self._transport.close()
        elif not self._transport.is_closing():
            self._transport.resume_reading()
            if self._buffer:
                self._advance()

    def _time_out(self) -> None:
        """The app went silent: a 500 if nothing is on the wire, then hang up."""
        if self._stage == 0:
            self._refuse(500, "TimeoutError", "timed out waiting for the ASGI app's next message")
        self._transport.close()
        self._task.cancel()

    def _refuse(self, status: int, kind: str, message: str) -> None:
        """Answer in the app's JSON error shape and close the connection
        (whatever the request still has on the wire is never read)."""
        payload = json.dumps({"error": {"type": kind, "message": message}}).encode()
        headers = [
            (b"Content-Type", b"application/json"),
            (b"Content-Length", b"%d" % len(payload)),
            (b"Connection", b"close"),
        ]
        self._transport.write(_head(status, headers) + payload)
        self._transport.close()


class StdlibServer:
    """Serve an ASGI app from a private asyncio loop — no third-party deps.

    Parameters
    ----------
    app:
        Any ASGI 3 callable (normally a :class:`repro.server.app.KORApp`).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read the real
        one from :attr:`address`).
    frontend:
        Optional :class:`~repro.service.frontend.AsyncQueryService` the
        server *owns*: :meth:`close` drains it on the server's event
        loop before stopping (the loop its flights live on — closing it
        anywhere else would touch foreign-loop futures).
    drain_seconds:
        Graceful-drain budget: before stopping, :meth:`close` flips an
        app exposing ``begin_drain()`` into refuse-new mode (503 +
        ``Retry-After``; ``/healthz`` says ``draining``) and waits up to
        this long for its ``pending`` count to hit zero, so admitted
        requests finish instead of dying with the socket.  ``0`` skips
        the wait (the drain flag still flips).
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        frontend=None,
        drain_seconds: float = 5.0,
    ) -> None:
        if drain_seconds < 0.0:
            raise ValueError(f"drain_seconds must be >= 0, got {drain_seconds}")
        self._app = app
        self._frontend = frontend
        self._drain_seconds = drain_seconds
        # Bound (and listening) here: early clients wait in the backlog.
        self._socket = socket.create_server((host, port))
        self._address: tuple[str, int] = self._socket.getsockname()[:2]
        self._loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()
        self._connections: set[_Connection] = set()
        self._thread = threading.Thread(target=self._run, name="kor-server-loop", daemon=True)
        self._started = False
        self._closed = False

    def _run(self) -> None:
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        """The loop thread's whole life: accept until :meth:`close` says stop, hang up
        on what the drain left running, close the owned frontend and the executor."""
        listener = await self._loop.create_server(lambda: _Connection(self), sock=self._socket)
        await self._stop.wait()
        listener.close()
        connections = list(self._connections)
        for connection in connections:
            connection._transport.abort()
        await asyncio.sleep(0)  # every connection_lost has run: sockets closed, tasks cancelled
        await asyncio.gather(*(c._task for c in connections if c._task), return_exceptions=True)
        if self._frontend is not None:
            await self._frontend.close()
        await self._loop.shutdown_default_executor()

    def start(self) -> "StdlibServer":
        """Start serving and return self (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` actually bound."""
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return "http://%s:%d" % self._address

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new work and wait for admitted requests to finish.

        Returns True when the app's pending count reached zero within
        *timeout* (default: the server's ``drain_seconds``).  A no-op
        True for apps without drain support.  Safe to call repeatedly;
        :meth:`close` calls it automatically.
        """
        begin_drain = getattr(self._app, "begin_drain", None)
        if not callable(begin_drain):
            return True
        begin_drain()
        deadline = time.monotonic() + (self._drain_seconds if timeout is None else timeout)
        while getattr(self._app, "pending", 0) > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def close(self) -> None:
        """Drain the app, stop serving, drain the owned frontend, stop the loop."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            self.drain()
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=_MESSAGE_TIMEOUT)
        else:
            self._socket.close()
            self._loop.close()

    def __enter__(self) -> "StdlibServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
