"""Minimal KOR HTTP clients — stdlib only, shared by tests and loadgen.

Two transports with one response shape:

* :func:`asgi_request` drives an ASGI app **in process** (no sockets):
  the fastest way to exercise every endpoint, and what the load
  generator's ``--transport asgi`` mode uses to measure the serving
  stack without kernel networking in the loop.
* :func:`http_request` is a tiny asyncio HTTP/1.1 client (one
  connection per request, ``Connection: close``) for talking to a real
  socket — the :class:`~repro.server.stdlib.StdlibServer`, or any other
  host of the app.  It understands ``Content-Length`` bodies and
  ``chunked`` transfer (the streaming top-k endpoint).

Neither replaces a real HTTP library; both exist so the repo's network
tier can be *driven and measured* with zero dependencies.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = ["HTTPResponse", "asgi_request", "http_request"]


@dataclass
class HTTPResponse:
    """One response, whichever transport produced it."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as one JSON document."""
        return json.loads(self.body)

    def ndjson(self) -> list[object]:
        """The body parsed as newline-delimited JSON (streaming top-k)."""
        return [json.loads(line) for line in self.body.split(b"\n") if line.strip()]


def _encode_body(payload: object | None) -> bytes:
    if payload is None:
        return b""
    return json.dumps(payload, allow_nan=False).encode()


async def asgi_request(
    app,
    method: str,
    path: str,
    payload: object | None = None,
) -> HTTPResponse:
    """Run one request through *app* without any network transport."""
    body = _encode_body(payload)
    query = ""
    if "?" in path:
        path, _, query = path.partition("?")
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "scheme": "http",
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": query.encode("latin-1"),
        "root_path": "",
        "headers": [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(body)).encode("latin-1")),
        ],
        "client": ("127.0.0.1", 0),
        "server": ("inproc", 0),
    }
    delivered = False

    async def receive() -> dict:
        nonlocal delivered
        if not delivered:
            delivered = True
            return {"type": "http.request", "body": body, "more_body": False}
        # Only reached by disconnect watchers; this client never hangs up.
        return await asyncio.get_running_loop().create_future()

    messages: list[dict] = []

    async def send(message: dict) -> None:
        messages.append(message)

    await app(scope, receive, send)
    if not messages or messages[0]["type"] != "http.response.start":
        raise RuntimeError("ASGI app did not start a response")
    return HTTPResponse(
        status=messages[0]["status"],
        headers={
            name.decode("latin-1"): value.decode("latin-1")
            for name, value in messages[0].get("headers", [])
        },
        body=b"".join(
            message.get("body", b"")
            for message in messages[1:]
            if message["type"] == "http.response.body"
        ),
    )


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: object | None = None,
    timeout: float = 30.0,
) -> HTTPResponse:
    """One HTTP/1.1 exchange over a fresh socket (``Connection: close``)."""
    return await asyncio.wait_for(_http_request(host, port, method, path, payload), timeout)


async def _http_request(
    host: str, port: int, method: str, path: str, payload: object | None
) -> HTTPResponse:
    body = _encode_body(payload)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method.upper()} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

        status_line = await reader.readline()
        parts = status_line.split(maxsplit=2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise RuntimeError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks: list[bytes] = []
            while True:
                size_line = await reader.readline()
                size = int(size_line.strip() or b"0", 16)
                if size == 0:
                    await reader.readline()  # trailer-terminating CRLF
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readexactly(2)  # chunk-terminating CRLF
            data = b"".join(chunks)
        elif "content-length" in headers:
            data = await reader.readexactly(int(headers["content-length"]))
        else:
            data = await reader.read()
        return HTTPResponse(status=status, headers=headers, body=data)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
