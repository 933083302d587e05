"""``repro.server`` — the network front door over the serving tier.

Layers (bottom up):

* :mod:`repro.server.schema` — the versioned wire contract
  (``kor.route_result.v1`` and friends), enforced in both directions;
* :mod:`repro.server.app` — :class:`KORApp`, a framework-free ASGI 3
  application over :class:`~repro.service.frontend.AsyncQueryService`;
* :mod:`repro.server.stdlib` — :class:`StdlibServer`, a zero-dependency
  loop-native (``asyncio.Protocol``) host for any ASGI app;
* :mod:`repro.server.client` — tiny in-process and socket clients the
  tests and the load generator share.

:func:`serve` wires the whole stack in one call::

    from repro.server import serve
    server = serve(QueryService(engine), adaptive_target_batch=8)
    print(server.url)  # e.g. http://127.0.0.1:40123
"""

from __future__ import annotations

from repro.server.app import KORApp
from repro.server.client import HTTPResponse, asgi_request, http_request
from repro.server.schema import (
    ROUTE_BATCH_SCHEMA,
    ROUTE_QUERY_SCHEMA,
    ROUTE_RESULT_SCHEMA,
    ROUTE_TOPK_SCHEMA,
    SERVICE_STATS_SCHEMA,
    WireError,
    decode_route_result,
    encode_route_result,
    parse_route_query,
    validate_route_result,
)
from repro.server.stdlib import StdlibServer
from repro.service.frontend import AsyncQueryService

__all__ = [
    "KORApp",
    "StdlibServer",
    "serve",
    "HTTPResponse",
    "asgi_request",
    "http_request",
    "ROUTE_QUERY_SCHEMA",
    "ROUTE_RESULT_SCHEMA",
    "ROUTE_BATCH_SCHEMA",
    "SERVICE_STATS_SCHEMA",
    "ROUTE_TOPK_SCHEMA",
    "WireError",
    "encode_route_result",
    "validate_route_result",
    "decode_route_result",
    "parse_route_query",
]


def serve(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    topk_engine=None,
    max_pending: int | None = None,
    drain_seconds: float = 5.0,
    **frontend_kwargs,
) -> StdlibServer:
    """One-call stdlib deployment of a sync ``QueryService``-shaped service.

    Wraps *service* in an :class:`AsyncQueryService` (any
    ``frontend_kwargs`` — ``adaptive_target_batch``, ``slo_seconds``,
    ``max_batch``, … — pass through), mounts :class:`KORApp` on a
    :class:`StdlibServer` owning the front-end, starts it on an
    ephemeral port by default, and returns the running server.  Close
    (or use as a context manager) to drain and stop.

    ``max_pending`` caps concurrently admitted work requests (excess is
    shed with 503 + ``Retry-After``); ``drain_seconds`` bounds the
    graceful drain :meth:`StdlibServer.close` performs.
    """
    frontend = AsyncQueryService(service, **frontend_kwargs)
    app_kwargs = {} if max_pending is None else {"max_pending": max_pending}
    app = KORApp(frontend, topk_engine=topk_engine, **app_kwargs)
    return StdlibServer(
        app, host=host, port=port, frontend=frontend, drain_seconds=drain_seconds
    ).start()
