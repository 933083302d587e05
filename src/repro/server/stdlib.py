"""Zero-dependency HTTP hosting for the ASGI app — stdlib only.

No ASGI server ships with CPython, so this module provides the missing
piece: :class:`StdlibServer` hosts **any** ASGI 3 callable (in practice
:class:`repro.server.app.KORApp`) on a stdlib
:class:`~http.server.ThreadingHTTPServer`.  The bridge is deliberately
tiny — a mini event-loop-in-a-thread ASGI host:

* one background thread runs a private asyncio event loop — the loop
  every application coroutine (and therefore every
  ``AsyncQueryService`` flight, timer and wave) lives on;
* each HTTP request is handled on one of ``ThreadingHTTPServer``'s
  per-connection threads, which builds the ASGI ``scope``, ships the
  app coroutine to the loop with ``run_coroutine_threadsafe``, and
  drains the app's ``send`` messages from a thread-safe queue;
* a response whose first body message carries ``more_body=True`` is
  relayed with chunked transfer encoding (this is how ``/topk/stream``
  streams NDJSON through a stdlib server); complete responses get a
  ``Content-Length``.

Because *all* requests funnel onto one loop, concurrent HTTP callers
coalesce and micro-batch exactly as concurrent in-process awaiters do —
the stdlib transport preserves the serving semantics, it does not fork
them.

Typical use (see ``examples/server_demo.py``)::

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
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

__all__ = ["MAX_BODY_BYTES", "StdlibServer"]

#: Largest request body the bridge will read — two orders of magnitude
#: above a 64-query ``/batch`` body.  A larger ``Content-Length`` is
#: refused with 413 before a byte of it is read.
MAX_BODY_BYTES = 1 << 20

#: How long one request handler waits for the app's next ASGI message
#: before giving up on the response (covers the slowest engine waves).
_MESSAGE_TIMEOUT = 60.0


class _BridgeHandler(BaseHTTPRequestHandler):
    """One HTTP exchange relayed through the ASGI app on the shared loop."""

    protocol_version = "HTTP/1.1"
    server: "_BridgeHTTPServer"

    # Silence the default stderr access log: tests and the load smoke
    # hammer the server and the log is pure noise there.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:
        self._relay()

    def do_POST(self) -> None:
        self._relay()

    def do_PUT(self) -> None:
        self._relay()

    def do_DELETE(self) -> None:
        self._relay()

    def _read_body(self) -> bytes | None:
        """The request body — or ``None`` once a bad ``Content-Length``
        has been answered (400 malformed or negative, 413 too large).

        Validated *before* reading: a non-numeric value used to raise in
        this handler thread (the client saw a reset, not a 4xx) and a
        negative one became ``rfile.read(-1)``, which blocks the thread
        until the peer closes.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send_error(
                400, "BadRequest", f"Content-Length must be a non-negative integer, got {raw!r}"
            )
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_error(
                413,
                "PayloadTooLarge",
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            )
            return None
        return self.rfile.read(length) if length else b""

    def _relay(self) -> None:
        body = self._read_body()
        if body is None:
            return
        split = urlsplit(self.path)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": self.command,
            "scheme": "http",
            "path": split.path,
            "raw_path": self.path.encode("latin-1"),
            "query_string": split.query.encode("latin-1"),
            "root_path": "",
            "headers": [
                (name.lower().encode("latin-1"), value.encode("latin-1"))
                for name, value in self.headers.items()
            ],
            "client": self.client_address,
            "server": self.server.server_address,
        }
        messages: queue.Queue = queue.Queue()
        request_sent = threading.Event()

        async def receive() -> dict:
            if not request_sent.is_set():
                request_sent.set()
                return {"type": "http.request", "body": body, "more_body": False}
            # The app only calls receive again to watch for disconnects;
            # this handler never disconnects mid-response.
            return await asyncio.get_running_loop().create_future()

        async def send(message: dict) -> None:
            messages.put(message)

        future = asyncio.run_coroutine_threadsafe(
            self.server.app(scope, receive, send), self.server.loop
        )
        try:
            self._write_response(messages, future)
        finally:
            if not future.done():
                future.cancel()

    def _write_response(self, messages: queue.Queue, future) -> None:
        try:
            start = self._next_message(messages, future)
            if start["type"] != "http.response.start":
                raise RuntimeError(f"expected http.response.start, got {start['type']!r}")
            first = self._next_message(messages, future)
        except Exception as error:  # noqa: BLE001 - transport boundary
            self._send_error(500, type(error).__name__, str(error))
            return
        status = start["status"]
        headers = [
            (name.decode("latin-1"), value.decode("latin-1"))
            for name, value in start.get("headers", [])
        ]
        streaming = first.get("more_body", False)
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        if streaming:
            self.send_header("Transfer-Encoding", "chunked")
        elif not any(name.lower() == "content-length" for name, _ in headers):
            self.send_header("Content-Length", str(len(first.get("body", b""))))
        self.end_headers()
        if not streaming:
            self.wfile.write(first.get("body", b""))
            self.wfile.flush()
            return
        message = first
        while True:
            chunk = message.get("body", b"")
            if chunk:
                self.wfile.write(f"{len(chunk):x}\r\n".encode("latin-1"))
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
                self.wfile.flush()
            if not message.get("more_body", False):
                break
            message = self._next_message(messages, future)
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def _next_message(self, messages: queue.Queue, future) -> dict:
        """The app's next ASGI message, surfacing app crashes as errors."""
        deadline = time.monotonic() + _MESSAGE_TIMEOUT
        while True:
            try:
                return messages.get(timeout=0.05)
            except queue.Empty:
                if future.done():
                    exception = future.exception()
                    if exception is not None:
                        raise exception
                    # Returned cleanly: every send() it made is already
                    # queued, so an empty queue means a broken app.
                    try:
                        return messages.get_nowait()
                    except queue.Empty:
                        raise RuntimeError(
                            "ASGI app returned without completing the response"
                        ) from None
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        "timed out waiting for the ASGI app's next message"
                    )

    def _send_error(self, status: int, kind: str, message: str) -> None:
        """Answer in the app's JSON error shape and close the connection
        (whatever the request still has on the wire is never read)."""
        payload = json.dumps({"error": {"type": kind, "message": message}}).encode()
        self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass


class _BridgeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Ephemeral test servers come and go quickly; reuse addresses.
    allow_reuse_address = True

    def __init__(self, address, app, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(address, _BridgeHandler)
        self.app = app
        self.loop = loop


class StdlibServer:
    """Serve an ASGI app over ``http.server`` — no third-party deps.

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
        self._frontend = frontend
        self._drain_seconds = drain_seconds
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="kor-server-loop", daemon=True
        )
        self._httpd = _BridgeHTTPServer((host, port), app, self._loop)
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="kor-server-http",
            daemon=True,
        )
        self._started = False
        self._closed = False

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StdlibServer":
        """Bind, start serving, and return self (idempotent)."""
        if not self._started:
            self._started = True
            self._loop_thread.start()
            self._serve_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` actually bound."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new work and wait for admitted requests to finish.

        Returns True when the app's pending count reached zero within
        *timeout* (default: the server's ``drain_seconds``).  A no-op
        True for apps without drain support.  Safe to call repeatedly;
        :meth:`close` calls it automatically.
        """
        app = self._httpd.app
        begin_drain = getattr(app, "begin_drain", None)
        if not callable(begin_drain):
            return True
        begin_drain()
        budget = self._drain_seconds if timeout is None else timeout
        deadline = time.monotonic() + budget
        while getattr(app, "pending", 0) > 0:
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
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._started:
            if self._frontend is not None:
                asyncio.run_coroutine_threadsafe(
                    self._frontend.close(), self._loop
                ).result(timeout=_MESSAGE_TIMEOUT)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._serve_thread.join(timeout=5.0)
            self._loop_thread.join(timeout=5.0)
        if not self._loop.is_running() and not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "StdlibServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
