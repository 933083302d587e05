"""The KOR serving tier's ASGI application — framework-free.

:class:`KORApp` is a plain `ASGI 3 <https://asgi.readthedocs.io/>`_
callable over one :class:`~repro.service.frontend.AsyncQueryService`.
No web framework is imported: the protocol is three dict shapes
(``scope`` / ``receive`` / ``send``), and speaking it directly keeps the
serving tier dependency-free while remaining hostable by any ASGI server
— including this package's own stdlib host
(:class:`repro.server.stdlib.StdlibServer`), so the demo runs with zero
extra deps.

Endpoints (all JSON, schema-stamped per :mod:`repro.server.schema`):

====================  ======  =================================================
``GET  /healthz``     200     liveness + the endpoint directory
``GET  /stats``       200     ``kor.service_stats.v1``: front-end snapshot,
                              scheduling meta, wrapped-service snapshot
``POST /query``       200     one ``kor.route_query.v1`` in, one validated
                              ``kor.route_result.v1`` out
``POST /batch``       200     ``{"queries": [...]}`` in (at most
                              ``MAX_BATCH_QUERIES``, else 413),
                              ``kor.route_batch.v1`` out (per-slot results
                              or error objects)
``POST /topk/stream`` 200     KkR top-k as streaming NDJSON: a
                              ``kor.route_topk.v1`` header line, then one
                              ranked route per line (chunked transfer)
``POST /tune``        200     feed an observed arrival rate into adaptive
                              micro-batching; echoes the window now in force
``POST /admin/update``  200   one ``kor.graph_update.v1`` mutation batch in,
                              a ``kor.graph_update_ack.v1`` ack out carrying
                              the graph epoch now in force
====================  ======  =================================================

Error mapping: malformed payloads and bad parameters (``WireError`` /
``QueryError``) are 400, expired deadlines (``DeadlineExceeded``) and
per-awaiter timeouts are 504, a shut-down serving tier
(``ServiceClosed``) is 503, unknown paths are 404, wrong methods are
405, anything else is a 500 carrying the exception type.  **Every**
``kor.route_result.v1`` document is passed through
:func:`~repro.server.schema.validate_route_result` before it is sent —
the server refuses to emit a response it would itself reject.

Failure containment at the front door:

* **Admission control** — at most ``max_pending`` query-serving
  requests (``/query`` / ``/batch`` / ``/topk/stream``) are in flight;
  the next one is *shed* with a 503 + ``Retry-After`` before its body
  is even read.  Sheds are counted in ``snapshot().shed`` and surfaced
  by ``/healthz``.
* **Deadlines** — a request-scoped deadline arrives as the ``timeout``
  / ``timeout_ms`` body fields or the ``x-kor-timeout-ms`` header (body
  wins) and propagates down to the engine's search loop.
* **Graceful drain** — :meth:`KORApp.begin_drain` flips the app into a
  refuse-new/finish-old mode (503 + ``Retry-After`` for new work;
  ``/healthz`` reports ``draining``) so a host can empty the request
  population before closing the frontend.
* ``/healthz`` reports ``degraded`` when the execution backend has an
  open circuit-breaker lane (see
  ``repro.service.backends.ProcessBackend.breaker_stats``).

Per-endpoint request/error counters land in the front-end's
:class:`~repro.service.stats.ServiceStats` (``snapshot().endpoints``),
so ``/stats`` reports the network tier's own traffic next to the query
metrics.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from typing import Awaitable, Callable

from repro.core.deadline import Deadline
from repro.exceptions import DeadlineExceeded, QueryError, ServiceClosed
from repro.graph.mutation import MutationError
from repro.server.schema import (
    MAX_TOPK,
    ROUTE_TOPK_SCHEMA,
    SERVICE_STATS_SCHEMA,
    WireError,
    encode_batch,
    encode_error,
    encode_route_result,
    encode_update_ack,
    parse_graph_update,
    parse_route_query,
    validate_route_result,
)
from repro.service.frontend import AsyncQueryService

__all__ = ["KORApp"]

_JSON_HEADERS = [(b"content-type", b"application/json")]
_NDJSON_HEADERS = [(b"content-type", b"application/x-ndjson")]

#: Endpoints that cost engine work and therefore count against (and can
#: be refused by) the pending-request budget.
_WORK_ENDPOINTS = frozenset({"/query", "/batch", "/topk/stream"})

#: Default cap on concurrently admitted work requests.
DEFAULT_MAX_PENDING = 256

#: What a shed response tells the client to wait before retrying.
RETRY_AFTER_SECONDS = 1

#: Most queries one ``/batch`` may carry (16x the front-end's default
#: ``max_batch``); a longer list is refused with 413 before any slot is
#: parsed, so one request cannot queue unbounded engine work.
MAX_BATCH_QUERIES = 1024


class KORApp:
    """ASGI 3 application serving KOR queries over HTTP.

    Parameters
    ----------
    frontend:
        The :class:`~repro.service.frontend.AsyncQueryService` every
        query endpoint submits into (micro-batching, coalescing and
        timeouts all apply to HTTP traffic exactly as to in-process
        callers — the app adds transport, never semantics).
    topk_engine:
        Engine answering ``/topk/stream`` (anything with the
        ``top_k(source, target, keywords, budget_limit, k, ...)``
        contract).  Defaults to the wrapped sync service's ``engine``
        when it has one; without an engine the endpoint answers 501.
    max_pending:
        Admission-control budget: the most ``/query`` / ``/batch`` /
        ``/topk/stream`` requests allowed in flight at once; the next
        one is shed with a 503 + ``Retry-After``.  A ``/batch`` of 50
        counts as one admitted request (its queries still queue inside
        the front-end, which has its own accounting).
    """

    def __init__(
        self,
        frontend: AsyncQueryService,
        topk_engine=None,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_pending < 1:
            raise QueryError(f"max_pending must be >= 1, got {max_pending}")
        self._front = frontend
        if topk_engine is None:
            topk_engine = getattr(getattr(frontend, "service", None), "engine", None)
        self._topk_engine = topk_engine
        self._max_pending = max_pending
        # Everything runs on one event loop, so a plain int is exact.
        self._pending = 0
        self._draining = False
        self._routes: dict[str, tuple[str, Callable[[dict, bytes], Awaitable[tuple[int, dict]]]]] = {
            "/healthz": ("GET", self._healthz),
            "/stats": ("GET", self._stats),
            "/query": ("POST", self._query),
            "/batch": ("POST", self._batch),
            "/tune": ("POST", self._tune),
            # Deliberately NOT a work endpoint: operators must be able
            # to push graph updates while the app sheds or drains query
            # traffic, and updates never count against the pending budget.
            "/admin/update": ("POST", self._admin_update),
        }

    @property
    def frontend(self) -> AsyncQueryService:
        """The wrapped async front-end."""
        return self._front

    @property
    def pending(self) -> int:
        """Work requests currently admitted and not yet answered."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` has been called."""
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new work while admitted requests run to completion.

        From now on every work endpoint answers 503 + ``Retry-After``
        and ``/healthz`` reports ``draining``; requests already admitted
        are unaffected.  The host polls :attr:`pending` down to zero
        before closing the front-end (see
        :class:`repro.server.stdlib.StdlibServer`).  Irreversible.
        """
        self._draining = True

    # ------------------------------------------------------------------
    # ASGI entry point
    # ------------------------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(f"KORApp only speaks http/lifespan, got {scope['type']!r}")
        path = scope["path"]
        method = scope["method"].upper()
        if path == "/topk/stream":
            if method != "POST":
                await self._finish(
                    send, path, 405,
                    {"error": {"type": "MethodNotAllowed", "message": "use POST"}},
                )
                return
            if await self._shed(send, path):
                return
            self._pending += 1
            try:
                await self._topk_stream(scope, receive, send)
            finally:
                self._pending -= 1
            return
        route = self._routes.get(path)
        if route is None:
            await self._finish(
                send,
                "<unknown>",
                404,
                {"error": {"type": "NotFound", "message": f"no endpoint {path!r}"}},
            )
            return
        expected_method, handler = route
        if method != expected_method:
            await self._finish(
                send,
                path,
                405,
                {"error": {"type": "MethodNotAllowed", "message": f"use {expected_method}"}},
            )
            return
        admitted = path in _WORK_ENDPOINTS
        if admitted:
            if await self._shed(send, path):
                return
            self._pending += 1
        try:
            body = await self._read_body(receive)
            try:
                status, payload = await handler(scope, body)
            except DeadlineExceeded as error:
                # Before the QueryError arm: an expired deadline is the
                # server running out of time, not the client's fault.
                status, payload = 504, encode_error(error)
            except ServiceClosed as error:
                status, payload = 503, encode_error(error)
            except (WireError, QueryError, MutationError) as error:
                status, payload = 400, encode_error(error)
            except asyncio.TimeoutError as error:
                status, payload = 504, encode_error(error)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - boundary: map to 500
                status, payload = 500, encode_error(error)
            await self._finish(send, path, status, payload)
        finally:
            if admitted:
                self._pending -= 1

    async def _shed(self, send, path: str) -> bool:
        """Refuse *path* (503 + Retry-After) when draining or over budget."""
        if self._draining:
            refusal = {
                "error": {
                    "type": "Draining",
                    "message": "server is draining; retry against another instance",
                }
            }
        elif self._pending >= self._max_pending:
            refusal = {
                "error": {
                    "type": "Overloaded",
                    "message": (
                        f"pending budget exhausted ({self._max_pending} requests "
                        "in flight); retry after backoff"
                    ),
                }
            }
        else:
            return False
        self._front.stats.record_shed()
        await self._finish(
            send,
            path,
            503,
            refusal,
            extra_headers=[(b"retry-after", str(RETRY_AFTER_SECONDS).encode())],
        )
        return True

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _healthz(self, scope, body: bytes) -> tuple[int, dict]:
        breakers = self._breaker_stats()
        if self._draining:
            status = "draining"
        elif breakers is not None and any(
            lane["state"] != "closed" for lane in breakers.get("lanes", ())
        ):
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "endpoints": sorted(self._routes) + ["/topk/stream"],
            "pending": self._pending,
            "max_pending": self._max_pending,
            "shed": self._front.stats.shed,
        }
        epoch = self._front.epoch
        if epoch is not None:
            payload["epoch"] = int(epoch)
        if breakers is not None:
            payload["breakers"] = breakers
        return 200, payload

    def _breaker_stats(self) -> dict | None:
        """Circuit-breaker readings of the wrapped service's backend."""
        backend = getattr(self._front.service, "backend", None)
        stats = getattr(backend, "breaker_stats", None)
        return stats() if callable(stats) else None

    async def _stats(self, scope, body: bytes) -> tuple[int, dict]:
        payload = {
            "schema": SERVICE_STATS_SCHEMA,
            "frontend": asdict(self._front.snapshot()),
            "scheduling": self._front.scheduling_stats(),
        }
        epoch = self._front.epoch
        if epoch is not None:
            payload["epoch"] = int(epoch)
        wrapped = getattr(self._front.service, "snapshot", None)
        if callable(wrapped):
            payload["service"] = asdict(wrapped())
        return 200, payload

    async def _query(self, scope, body: bytes) -> tuple[int, dict]:
        spec = parse_route_query(_loads(body))
        # Read before the await: an update landing while the search runs
        # must not stamp its epoch on an answer computed before it (a
        # raced stamp may read one epoch old, never new).
        epoch = self._front.epoch
        result = await self._front.submit(
            spec["query"],
            algorithm=spec["algorithm"],
            timeout=_request_timeout(spec, scope),
            **spec["params"],
        )
        return 200, validate_route_result(
            encode_route_result(result, explain=spec["explain"], epoch=epoch)
        )

    async def _batch(self, scope, body: bytes) -> tuple[int, dict]:
        payload = _loads(body)
        if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
            raise WireError("route_batch: body must carry a 'queries' list")
        if len(payload["queries"]) > MAX_BATCH_QUERIES:
            message = (
                f"route_batch: {len(payload['queries'])} queries exceed the "
                f"{MAX_BATCH_QUERIES}-query limit"
            )
            return 413, {"error": {"type": "PayloadTooLarge", "message": message}}
        defaults = {
            key: payload[key]
            for key in ("algorithm", "params", "explain", "timeout")
            if key in payload
        }
        specs = []
        for item in payload["queries"]:
            if not isinstance(item, dict):
                raise WireError("route_batch: each query must be a JSON object")
            # Batch-level defaults apply unless the slot overrides them.
            specs.append(parse_route_query({**defaults, **item}))
        header_timeout = _header_timeout(scope)
        epoch = self._front.epoch  # before the await, as in _query
        outcomes = await asyncio.gather(
            *(
                self._front.submit(
                    spec["query"],
                    algorithm=spec["algorithm"],
                    timeout=(
                        spec["timeout"] if spec["timeout"] is not None else header_timeout
                    ),
                    **spec["params"],
                )
                for spec in specs
            ),
            return_exceptions=True,
        )
        items = []
        for spec, outcome in zip(specs, outcomes):
            if isinstance(outcome, BaseException):
                items.append(encode_error(outcome))
            else:
                items.append(
                    validate_route_result(
                        encode_route_result(
                            outcome, explain=spec["explain"], epoch=epoch
                        )
                    )
                )
        return 200, encode_batch(items)

    async def _tune(self, scope, body: bytes) -> tuple[int, dict]:
        payload = _loads(body)
        if not isinstance(payload, dict):
            raise WireError("tune: body must be a JSON object")
        rate = payload.get("arrival_qps")
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise WireError("tune: 'arrival_qps' must be a number")
        window = self._front.tune(float(rate))
        scheduling = self._front.scheduling_stats()
        ack = {
            "window_seconds": window,
            "arrival_qps": self._front.arrival_qps,
            "adaptive": scheduling["adaptive"],
        }
        # Adaptive wave sizing rides the same rate signal; report the
        # size now in effect when the wrapped tier has a controller.
        if "wave_sizing" in scheduling:
            ack["wave_size"] = scheduling["wave_sizing"]["wave_size"]
        return 200, ack

    async def _admin_update(self, scope, body: bytes) -> tuple[int, dict]:
        """Apply a ``kor.graph_update.v1`` mutation batch to the world.

        The ack carries the graph epoch now in force, so an operator
        can correlate subsequent ``kor.route_result.v1`` documents
        (which are stamped with the epoch they were served under) with
        the update that produced that state.  Admission control does not
        apply: updates must land even while the app sheds or drains.
        """
        ops = parse_graph_update(_loads(body))
        epoch = await self._front.apply_update(ops)
        return 200, encode_update_ack(epoch, applied=len(ops))

    async def _topk_stream(self, scope, receive, send) -> None:
        """KkR top-k as chunked NDJSON (header line, then ranked routes).

        The whole search runs on a worker thread before the first byte
        is written — top-k has no incremental API — but the response is
        still streamed line by line so large answers never materialise
        as one document and clients can consume ranks as they arrive.
        The request deadline follows ``/query``'s rules (body ``timeout``
        / ``timeout_ms`` over the ``x-kor-timeout-ms`` header) and ticks
        inside the search loop, which is what stops the worker thread:
        nothing else can cancel it.
        """
        body = await self._read_body(receive)
        try:
            if self._topk_engine is None:
                raise LookupError("this deployment exposes no top-k engine")
            payload = _loads(body)
            spec = parse_route_query(payload)
            k = payload.get("k")
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise WireError("route_topk: 'k' must be a positive integer")
            if k > MAX_TOPK:
                raise WireError(f"route_topk: k={k} exceeds the limit of {MAX_TOPK}")
            timeout = _request_timeout(spec, scope)
            deadline = Deadline.after(timeout) if timeout is not None else None
            loop = asyncio.get_running_loop()
            answer = await loop.run_in_executor(
                None,
                lambda: self._topk_engine.top_k(
                    spec["query"].source,
                    spec["query"].target,
                    spec["query"].keywords,
                    spec["query"].budget_limit,
                    k,
                    algorithm=spec["algorithm"],
                    deadline=deadline,
                    **spec["params"],
                ),
            )
        except DeadlineExceeded as error:
            # Before the QueryError arm, as in ``__call__``.
            await self._finish(send, "/topk/stream", 504, encode_error(error))
            return
        except (WireError, QueryError) as error:
            await self._finish(send, "/topk/stream", 400, encode_error(error))
            return
        except LookupError as error:
            await self._finish(send, "/topk/stream", 501, encode_error(error))
            return
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - boundary: map to 500
            await self._finish(send, "/topk/stream", 500, encode_error(error))
            return
        header = {
            "schema": ROUTE_TOPK_SCHEMA,
            "query": {
                "source": spec["query"].source,
                "target": spec["query"].target,
                "keywords": list(spec["query"].keywords),
                "budget_limit": spec["query"].budget_limit,
            },
            "algorithm": spec["algorithm"],
            "k": k,
            "count": len(answer.routes),
        }
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": list(_NDJSON_HEADERS),
            }
        )
        await send(
            {"type": "http.response.body", "body": _line(header), "more_body": True}
        )
        for rank, route in enumerate(answer.routes, start=1):
            line = {
                "rank": rank,
                "nodes": [int(node) for node in route.nodes],
                "score": {
                    "objective": float(route.objective_score),
                    "budget": float(route.budget_score),
                },
            }
            await send(
                {"type": "http.response.body", "body": _line(line), "more_body": True}
            )
        await send({"type": "http.response.body", "body": b"", "more_body": False})
        self._front.stats.record_endpoint("/topk/stream")

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _read_body(self, receive) -> bytes:
        chunks: list[bytes] = []
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise asyncio.CancelledError("client disconnected mid-request")
            chunks.append(message.get("body", b""))
            if not message.get("more_body", False):
                return b"".join(chunks)

    async def _finish(
        self,
        send,
        endpoint: str,
        status: int,
        payload: dict,
        extra_headers: list[tuple[bytes, bytes]] | None = None,
    ) -> None:
        """One complete JSON response + the endpoint counter tick."""
        body = json.dumps(payload, allow_nan=False).encode()
        headers = list(_JSON_HEADERS) + [
            (b"content-length", str(len(body)).encode())
        ]
        if extra_headers:
            headers.extend(extra_headers)
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": headers,
            }
        )
        await send({"type": "http.response.body", "body": body, "more_body": False})
        self._front.stats.record_endpoint(endpoint, error=status >= 400)


def _loads(body: bytes) -> object:
    try:
        return json.loads(body or b"null")
    except json.JSONDecodeError as error:
        raise WireError(f"request body is not valid JSON: {error}") from None


def _header_timeout(scope) -> float | None:
    """The ``x-kor-timeout-ms`` request header as seconds, if present.

    Body-level ``timeout`` / ``timeout_ms`` fields take precedence; the
    header is the transport-level default a proxy or client library can
    stamp on every request without touching payloads.
    """
    for name, value in scope.get("headers") or ():
        if bytes(name).lower() == b"x-kor-timeout-ms":
            text = bytes(value).decode("latin-1").strip()
            try:
                ms = float(text)
            except ValueError:
                raise WireError(
                    f"x-kor-timeout-ms header must be a number, got {text!r}"
                ) from None
            if ms <= 0:
                raise WireError("x-kor-timeout-ms header must be positive")
            return ms / 1000.0
    return None


def _request_timeout(spec: dict, scope) -> float | None:
    """One request's deadline in seconds: the body's, else the header's."""
    timeout = spec["timeout"]
    return timeout if timeout is not None else _header_timeout(scope)


def _line(payload: dict) -> bytes:
    return json.dumps(payload, allow_nan=False).encode() + b"\n"
