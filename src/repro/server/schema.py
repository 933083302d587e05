"""``kor.route_result.v1`` — the serving tier's versioned wire schema.

Everything that crosses the network boundary is a JSON document whose
``schema`` field names its exact shape and version, in the style of
schema-versioned routing outputs (required fields, a score breakdown,
an optional ``explain`` payload).  The contract is enforced **both
ways**: the server validates every response before it is sent
(:func:`validate_route_result`), and well-behaved clients — the load
generator, the differential tests — validate again on receipt, so a
drift in either direction fails loudly instead of silently changing
what "a route result" means mid-deployment.

Schemas defined here:

``kor.route_query.v1``
    A single query request (``/query`` body): required ``source`` /
    ``target`` / ``keywords`` (at most ``MAX_QUERY_KEYWORDS``) /
    ``budget_limit``, optional ``algorithm`` / ``params`` / ``explain``
    / ``timeout``.
``kor.route_result.v1``
    One answered query: the echoed query, the algorithm, the four
    feasibility verdicts, a ``score`` breakdown (objective + budget, or
    nulls when no route exists), the route's node sequence and, when
    requested, an ``explain`` payload with the search counters.
``kor.route_batch.v1``
    A ``/batch`` response: per-slot ``kor.route_result.v1`` items or
    per-slot error objects, in submission order.
``kor.service_stats.v1``
    The ``/stats`` response: front-end snapshot, scheduling meta and
    the wrapped sync service's snapshot.  Additive optional fields:
    the snapshots carry a ``waves`` dict (wave-dispatch occupancy —
    ``formed`` / ``members`` / ``capacity`` / ``solo_fallbacks`` /
    ``mean_members`` / ``fill_rate``) once the service dispatched any
    wave, and scheduling meta carries ``wave_sizing`` (the adaptive
    wave-size controller's policy) when the wrapped tier has one.
``kor.route_topk.v1``
    The streaming top-k header line; each following NDJSON line is one
    ranked route.
``kor.graph_update.v1`` / ``kor.graph_update_ack.v1``
    A ``/admin/update`` request — an ordered list of graph mutation
    operations (edge re-costs, node closures/re-opens, keyword
    replacements) applied atomically as **one** epoch bump — and its
    acknowledgement carrying the resulting graph epoch.

Route results additionally carry an optional ``epoch`` field (the graph
epoch the answer was computed against) so clients can detect reads that
raced a live update; it is additive, so pre-epoch clients keep
validating.

Encoding never emits ``NaN``/``Infinity`` (scores of route-less results
are ``null``), so payloads stay valid strict JSON.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Mapping

from repro.core.engine import ALGORITHMS
from repro.core.query import KORQuery
from repro.core.results import KORResult, SearchStats
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.graph.mutation import OP_NAMES

__all__ = [
    "ROUTE_QUERY_SCHEMA",
    "ROUTE_RESULT_SCHEMA",
    "ROUTE_BATCH_SCHEMA",
    "SERVICE_STATS_SCHEMA",
    "ROUTE_TOPK_SCHEMA",
    "GRAPH_UPDATE_SCHEMA",
    "GRAPH_UPDATE_ACK_SCHEMA",
    "MAX_QUERY_KEYWORDS",
    "MAX_TOPK",
    "WireError",
    "encode_route_result",
    "validate_route_result",
    "decode_route_result",
    "parse_route_query",
    "parse_graph_update",
    "encode_update_ack",
    "encode_batch",
    "encode_error",
]

ROUTE_QUERY_SCHEMA = "kor.route_query.v1"
ROUTE_RESULT_SCHEMA = "kor.route_result.v1"
ROUTE_BATCH_SCHEMA = "kor.route_batch.v1"
SERVICE_STATS_SCHEMA = "kor.service_stats.v1"
ROUTE_TOPK_SCHEMA = "kor.route_topk.v1"
GRAPH_UPDATE_SCHEMA = "kor.graph_update.v1"
GRAPH_UPDATE_ACK_SCHEMA = "kor.graph_update_ack.v1"

#: Most keywords one ``kor.route_query.v1`` may carry.  Search cost is
#: exponential in the keyword count (the paper stops at 10), so a longer
#: list is a malformed request, not a query to attempt.
MAX_QUERY_KEYWORDS = 64

#: Largest ``k`` a ``/topk/stream`` request may ask for.  k-domination
#: discards a label only once ``k`` stored labels dominate it, so a huge
#: ``k`` switches the prune off and the search enumerates routes; the
#: Fig. 16 reproduction sweeps ``k`` over 1..5.
MAX_TOPK = 100

#: Required top-level fields of a ``kor.route_result.v1`` document and
#: the python types each must carry.  ``route`` and ``failure_reason``
#: are required *keys* whose values may be null.
_RESULT_REQUIRED: dict[str, tuple[type, ...]] = {
    "schema": (str,),
    "query": (dict,),
    "algorithm": (str,),
    "found": (bool,),
    "feasible": (bool,),
    "covers_keywords": (bool,),
    "within_budget": (bool,),
    "score": (dict,),
    "route": (list, type(None)),
    "failure_reason": (str, type(None)),
}

_QUERY_REQUIRED: dict[str, tuple[type, ...]] = {
    "source": (int,),
    "target": (int,),
    "keywords": (list,),
    "budget_limit": (int, float),
}


class WireError(QueryError):
    """A payload violated the wire schema (either direction)."""


def _require(payload: Mapping, spec: dict[str, tuple[type, ...]], where: str) -> None:
    if not isinstance(payload, Mapping):
        raise WireError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    for field, types in spec.items():
        if field not in payload:
            raise WireError(f"{where}: required field {field!r} is missing")
        value = payload[field]
        if not isinstance(value, types) or (
            # bool is an int subclass; a numeric field must not accept it.
            isinstance(value, bool) and bool not in types
        ):
            expected = "/".join(t.__name__ for t in types)
            raise WireError(
                f"{where}: field {field!r} must be {expected}, "
                f"got {type(value).__name__}"
            )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


def parse_route_query(payload: object) -> dict:
    """Validate and normalise one ``kor.route_query.v1`` request body.

    Returns ``{"query": KORQuery, "algorithm": str, "params": dict,
    "explain": bool, "timeout": float | None}``.  Raises
    :class:`WireError` on any malformed field — the server maps that to
    a 400, never a 500.

    The request deadline may be spelled ``timeout`` (seconds) or
    ``timeout_ms`` (milliseconds, the header-friendly form) — but not
    both.  ``params`` may not smuggle a ``deadline``: deadlines are
    transport-level and travel out-of-band.
    """
    _require(payload, _QUERY_REQUIRED, "route_query")
    schema = payload.get("schema", ROUTE_QUERY_SCHEMA)
    if schema != ROUTE_QUERY_SCHEMA:
        raise WireError(
            f"route_query: unsupported schema {schema!r}; expected {ROUTE_QUERY_SCHEMA!r}"
        )
    keywords = payload["keywords"]
    if len(keywords) > MAX_QUERY_KEYWORDS:
        raise WireError(
            f"route_query: {len(keywords)} keywords exceed the {MAX_QUERY_KEYWORDS}-keyword limit"
        )
    if not all(isinstance(word, str) for word in keywords):
        raise WireError("route_query: 'keywords' must be a list of strings")
    try:
        budget = float(payload["budget_limit"])
    except OverflowError:  # an integer literal beyond float range
        budget = math.inf
    if not math.isfinite(budget):
        # json.loads accepts the non-JSON literals Infinity / NaN.
        raise WireError("route_query: 'budget_limit' must be a finite number")
    algorithm = payload.get("algorithm", "bucketbound")
    if algorithm not in ALGORITHMS:
        raise WireError(
            f"route_query: unknown algorithm {algorithm!r}; "
            f"expected one of {', '.join(ALGORITHMS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, Mapping):
        raise WireError("route_query: 'params' must be a JSON object")
    if "deadline" in params:
        raise WireError(
            "route_query: 'deadline' is not a query parameter; use "
            "'timeout' / 'timeout_ms' (or the x-kor-timeout-ms header)"
        )
    explain = payload.get("explain", False)
    if not isinstance(explain, bool):
        raise WireError("route_query: 'explain' must be a boolean")
    timeout = payload.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or timeout <= 0
    ):
        raise WireError("route_query: 'timeout' must be a positive number")
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if timeout is not None:
            raise WireError(
                "route_query: give 'timeout' or 'timeout_ms', not both"
            )
        if (
            isinstance(timeout_ms, bool)
            or not isinstance(timeout_ms, (int, float))
            or timeout_ms <= 0
        ):
            raise WireError("route_query: 'timeout_ms' must be a positive number")
        timeout = float(timeout_ms) / 1000.0
    return {
        "query": KORQuery(
            int(payload["source"]), int(payload["target"]), tuple(keywords), budget
        ),
        "algorithm": algorithm,
        "params": dict(params),
        "explain": explain,
        "timeout": float(timeout) if timeout is not None else None,
    }


def _node_id(op: Mapping, field: str, where: str) -> int:
    value = op.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise WireError(f"{where}: {field!r} must be a non-negative integer node id")
    return value


def _positive_weight(op: Mapping, field: str, where: str) -> float | None:
    value = op.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise WireError(f"{where}: {field!r} must be a positive number")
    return float(value)


def parse_graph_update(payload: object) -> list[dict]:
    """Validate one ``kor.graph_update.v1`` body into mutation ops.

    Returns the ordered op list in exactly the wire shape
    :meth:`repro.graph.mutation.GraphMutator.apply_op` consumes —
    shape-validated here (types, op names, required fields) so a
    malformed body maps to a 400; *semantic* validation (does the edge
    exist, is the node already closed) stays with the mutator, whose
    :class:`~repro.graph.mutation.MutationError` the server also maps
    to a 400.
    """
    if not isinstance(payload, Mapping):
        raise WireError(
            f"graph_update: expected a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema", GRAPH_UPDATE_SCHEMA)
    if schema != GRAPH_UPDATE_SCHEMA:
        raise WireError(
            f"graph_update: unsupported schema {schema!r}; "
            f"expected {GRAPH_UPDATE_SCHEMA!r}"
        )
    ops = payload.get("ops")
    if not isinstance(ops, list) or not ops:
        raise WireError("graph_update: 'ops' must be a non-empty list")
    parsed: list[dict] = []
    for position, op in enumerate(ops):
        where = f"graph_update.ops[{position}]"
        if not isinstance(op, Mapping):
            raise WireError(f"{where}: expected a JSON object")
        kind = op.get("op")
        if kind not in OP_NAMES:
            raise WireError(
                f"{where}: unknown op {kind!r}; expected one of {', '.join(OP_NAMES)}"
            )
        if kind == "update_edge_cost":
            entry = {
                "op": kind,
                "u": _node_id(op, "u", where),
                "v": _node_id(op, "v", where),
            }
            objective = _positive_weight(op, "objective", where)
            budget = _positive_weight(op, "budget", where)
            if objective is None and budget is None:
                raise WireError(f"{where}: needs 'objective', 'budget', or both")
            if objective is not None:
                entry["objective"] = objective
            if budget is not None:
                entry["budget"] = budget
        elif kind == "update_keywords":
            keywords = op.get("keywords")
            if not isinstance(keywords, list) or not all(
                isinstance(word, str) and word for word in keywords
            ):
                raise WireError(
                    f"{where}: 'keywords' must be a list of non-empty strings"
                )
            entry = {
                "op": kind,
                "node": _node_id(op, "node", where),
                "keywords": list(keywords),
            }
        else:  # close_node / open_node
            entry = {"op": kind, "node": _node_id(op, "node", where)}
        parsed.append(entry)
    return parsed


def encode_update_ack(epoch: int, applied: int) -> dict:
    """A ``kor.graph_update_ack.v1`` document for an applied update."""
    return {
        "schema": GRAPH_UPDATE_ACK_SCHEMA,
        "epoch": int(epoch),
        "applied": int(applied),
    }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def encode_route_result(
    result: KORResult, explain: bool = False, epoch: int | None = None
) -> dict:
    """One :class:`KORResult` as a ``kor.route_result.v1`` document.

    ``explain=True`` attaches the search counters (labels created /
    pruned, loops, runtime) — the per-query cost story, for tuning.
    ``epoch`` (when the serving tier tracks one) stamps the graph epoch
    the answer was computed against — additive, so documents from
    pre-epoch servers stay valid.
    """
    route = result.route
    payload = {
        "schema": ROUTE_RESULT_SCHEMA,
        "query": {
            "source": int(result.query.source),
            "target": int(result.query.target),
            "keywords": list(result.query.keywords),
            "budget_limit": float(result.query.budget_limit),
        },
        "algorithm": result.algorithm,
        "found": result.found,
        "feasible": result.feasible,
        "covers_keywords": result.covers_keywords,
        "within_budget": result.within_budget,
        "score": {
            "objective": float(route.objective_score) if route is not None else None,
            "budget": float(route.budget_score) if route is not None else None,
        },
        "route": [int(node) for node in route.nodes] if route is not None else None,
        "failure_reason": result.failure_reason,
    }
    if result.degraded:
        # v1-compatible extension: the key appears only on degraded
        # answers, so normal responses stay byte-identical to before.
        payload["degraded"] = True
    if epoch is not None:
        # Same additive pattern: only epoch-tracking servers emit it.
        payload["epoch"] = int(epoch)
    if explain:
        payload["explain"] = {"search": asdict(result.stats)}
    return payload


def validate_route_result(payload: object) -> dict:
    """Check *payload* against ``kor.route_result.v1``; return it.

    Beyond per-field types this enforces the cross-field invariants that
    make a document *coherent*: the schema constant, a well-formed
    echoed query, and the found/route/score consistency triangle
    (``found`` iff a route is present iff the score breakdown is
    non-null).  Raises :class:`WireError` with a pinpointed message.
    """
    _require(payload, _RESULT_REQUIRED, "route_result")
    if payload["schema"] != ROUTE_RESULT_SCHEMA:
        raise WireError(
            f"route_result: schema must be {ROUTE_RESULT_SCHEMA!r}, "
            f"got {payload['schema']!r}"
        )
    _require(payload["query"], _QUERY_REQUIRED, "route_result.query")
    if not all(isinstance(word, str) for word in payload["query"]["keywords"]):
        raise WireError("route_result.query: 'keywords' must be a list of strings")
    # Result labels are *descriptive* (``greedy-1``, ``exact``…), not
    # the request-side names — only emptiness is a wire violation here.
    if not payload["algorithm"]:
        raise WireError("route_result: 'algorithm' must be a non-empty string")
    score = payload["score"]
    for part in ("objective", "budget"):
        if part not in score:
            raise WireError(f"route_result.score: required field {part!r} is missing")
        value = score[part]
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise WireError(f"route_result.score: {part!r} must be a number or null")
    route = payload["route"]
    if route is not None and not all(
        isinstance(node, int) and not isinstance(node, bool) for node in route
    ):
        raise WireError("route_result: 'route' must be a list of integer node ids")
    has_route = route is not None
    if payload["found"] != has_route:
        raise WireError("route_result: 'found' must mirror the presence of 'route'")
    if (score["objective"] is None) == has_route or (score["budget"] is None) == has_route:
        raise WireError(
            "route_result: score breakdown must be non-null exactly when a route exists"
        )
    if payload["feasible"] != (
        has_route and payload["covers_keywords"] and payload["within_budget"]
    ):
        raise WireError(
            "route_result: 'feasible' must equal found and covers_keywords "
            "and within_budget"
        )
    if "degraded" in payload and not isinstance(payload["degraded"], bool):
        raise WireError("route_result: 'degraded' must be a boolean when present")
    if "epoch" in payload and (
        isinstance(payload["epoch"], bool)
        or not isinstance(payload["epoch"], int)
        or payload["epoch"] < 0
    ):
        raise WireError(
            "route_result: 'epoch' must be a non-negative integer when present"
        )
    if "explain" in payload and not isinstance(payload["explain"], Mapping):
        raise WireError("route_result: 'explain' must be a JSON object when present")
    return dict(payload)


def decode_route_result(payload: Mapping) -> KORResult:
    """Reassemble a :class:`KORResult` from a validated wire document.

    The round-trip preserves everything the differential fingerprint
    observes (feasibility verdicts, route nodes, scores, failure
    reason); search counters come back only when the document carried
    an ``explain`` payload.
    """
    payload = validate_route_result(payload)
    query = KORQuery(
        payload["query"]["source"],
        payload["query"]["target"],
        tuple(payload["query"]["keywords"]),
        float(payload["query"]["budget_limit"]),
    )
    route = None
    if payload["route"] is not None:
        route = Route(
            nodes=tuple(payload["route"]),
            objective_score=float(payload["score"]["objective"]),
            budget_score=float(payload["score"]["budget"]),
        )
    stats = SearchStats()
    explain = payload.get("explain")
    if explain and isinstance(explain.get("search"), Mapping):
        known = {field for field in SearchStats.__dataclass_fields__}
        stats = SearchStats(
            **{k: v for k, v in explain["search"].items() if k in known}
        )
    return KORResult(
        query=query,
        algorithm=payload["algorithm"],
        route=route,
        covers_keywords=payload["covers_keywords"],
        within_budget=payload["within_budget"],
        stats=stats,
        failure_reason=payload["failure_reason"],
        degraded=payload.get("degraded", False),
    )


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------


def encode_error(error: BaseException) -> dict:
    """A per-slot (or top-level) error object."""
    return {"error": {"type": type(error).__name__, "message": str(error)}}


def encode_batch(items: list[dict]) -> dict:
    """Wrap per-slot documents into a ``kor.route_batch.v1`` envelope."""
    return {"schema": ROUTE_BATCH_SCHEMA, "count": len(items), "results": items}
