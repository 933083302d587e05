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

Each message read here is a :class:`Message`: a field table plus named
cross-field hooks, run by the one interpreter :func:`_read`.  The
README's wire reference is rendered from the tables
(:func:`wire_reference`).  Schemas defined here:

``kor.route_query.v1``
    A single query request (``/query`` body, a ``/batch`` slot; with
    ``k``, the ``/topk/stream`` body).
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
    wave.
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

import sys
from collections.abc import Mapping
from dataclasses import asdict
from typing import Callable, NamedTuple

from repro.core.engine import ALGORITHMS, WIRE_PARAMETERS, check_parameters
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
    "MAX_BATCH_QUERIES",
    "WireError",
    "PayloadTooLarge",
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

#: Most queries one ``/batch`` may carry (16x the front-end's default
#: ``max_batch``); a longer list is refused with 413 before any slot is
#: parsed, so one request cannot queue unbounded engine work.
MAX_BATCH_QUERIES = 1024


class WireError(QueryError):
    """A payload violated the wire schema (either direction)."""


class PayloadTooLarge(WireError):
    """A well-formed request that asks for more work than one may queue (413)."""


# ----------------------------------------------------------------------
# kinds, cross-field hooks, field tables and the interpreter
# ----------------------------------------------------------------------


class Field(NamedTuple):
    """One row of a field table.  *presence* is ``required``, ``nullable``
    (required, may be ``null``) or ``optional`` (absent or ``null`` reads
    as *default*); what *bound* means depends on the kind."""

    name: str
    kind: str
    presence: str = "required"
    bound: object = None
    default: object = None


class Message:
    """A field table; *title* prefixes its errors, and each hook returns
    the refusal of a rule across the values read, or None."""

    def __init__(self, title: str, fields: tuple[Field, ...], hooks: tuple = ()) -> None:
        self.title, self.fields, self.hooks = title, fields, hooks
        # What _read walks, each kind looked up once: plain tuples.
        self.rows = tuple((f.name, *_KINDS[f.kind], *f[2:]) for f in fields)


_FLOAT_MAX = sys.float_info.max


def _finite(value: object) -> bool:
    # json.loads accepts NaN / Infinity, and integers beyond float range.
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def _object(value: object, bound: Message | None) -> bool:
    if bound is None:
        return isinstance(value, Mapping)
    _read(bound, value)  # its own field table, under its own title
    return True


#: Each kind: a test of ``(value, bound)`` and its refusal, formatted with
#: the field's name, the value and the bound's text.
# fmt: off
_KINDS: dict[str, tuple[Callable[[object, object], bool], str]] = {
    "node_id": (
        lambda v, b: type(v) is int and v >= 0, "{name!r} must be a non-negative integer node id"
    ),
    "integer": (lambda v, b: type(v) is int and v in b, "{name!r} must be an integer in {bound}"),
    "finite_number": (lambda v, b: _finite(v), "{name!r} must be a finite number"),
    "positive_finite_number": (
        lambda v, b: _finite(v) and v > 0, "{name!r} must be a positive finite number"
    ),
    "bool": (lambda v, b: isinstance(v, bool), "{name!r} must be a boolean"),
    "str": (lambda v, b: isinstance(v, str) and v != "", "{name!r} must be a non-empty string"),
    "choice": (
        lambda v, b: isinstance(v, str) and v in b,
        "unknown {name} {value!r}; expected one of {bound}",
    ),
    "schema": (lambda v, b: v == b, "unsupported schema {value!r}; schema must be {bound!r}"),
    "str_list": (
        lambda v, b: isinstance(v, list) and all(isinstance(w, str) and w for w in v),
        "{name!r} must be a list of non-empty strings",
    ),
    "node_list": (
        lambda v, b: isinstance(v, list) and all(type(n) is int and n >= 0 for n in v),
        "{name!r} must be a list of non-negative integer node ids",
    ),
    "list": (lambda v, b: isinstance(v, list) and len(v) > 0, "{name!r} must be a non-empty list"),
    "object": (_object, "{name!r} must be a JSON object"),
}
# fmt: on


def _keyword_limit(values: dict) -> str | None:
    """At most 64 (`MAX_QUERY_KEYWORDS`) `keywords`."""
    if len(values["keywords"]) > MAX_QUERY_KEYWORDS:
        return f"{len(values['keywords'])} keywords exceed the {MAX_QUERY_KEYWORDS}-keyword limit"


def _one_timeout(values: dict) -> str | None:
    """`timeout` (seconds) or `timeout_ms`, not both."""
    if values["timeout"] is not None and values["timeout_ms"] is not None:
        return "give 'timeout' or 'timeout_ms', not both"


def _found_route_score(values: dict) -> str | None:
    """`found` iff `route` is non-null iff both scores are non-null."""
    found, score = values["route"] is not None, values["score"]
    if values["found"] != found:
        return "'found' must mirror the presence of 'route'"
    if (score["objective"] is None) == found or (score["budget"] is None) == found:
        return "score breakdown must be non-null exactly when a route exists"


def _feasible(values: dict) -> str | None:
    """`feasible` equals `found` and `covers_keywords` and `within_budget`."""
    if values["feasible"] != (
        values["found"] and values["covers_keywords"] and values["within_budget"]
    ):
        return "'feasible' must equal found and covers_keywords and within_budget"


def _objective_or_budget(values: dict) -> str | None:
    """`objective`, `budget`, or both."""
    if values["objective"] is None and values["budget"] is None:
        return "needs 'objective', 'budget', or both"


_QUERY = (
    Field("source", "node_id"),
    Field("target", "node_id"),
    Field("keywords", "str_list"),
    Field("budget_limit", "finite_number"),
)
#: What a ``/batch`` envelope may set for every slot that does not.
_SLOT_DEFAULTS = (
    Field("algorithm", "choice", "optional", ALGORITHMS, "bucketbound"),
    Field("params", "object", "optional", default={}),
    Field("explain", "bool", "optional", default=False),
    Field("timeout", "positive_finite_number", "optional"),
)
# fmt: off
ROUTE_QUERY = Message("route_query", (
    Field("schema", "schema", "optional", ROUTE_QUERY_SCHEMA),
    *_QUERY,
    *_SLOT_DEFAULTS,
    Field("timeout_ms", "positive_finite_number", "optional"),
), (_keyword_limit, _one_timeout))
ROUTE_TOPK = Message("route_topk", (
    *ROUTE_QUERY.fields,
    Field("k", "integer", bound=range(1, MAX_TOPK + 1)),
), ROUTE_QUERY.hooks)
ROUTE_BATCH = Message("route_batch", (Field("queries", "list"), *_SLOT_DEFAULTS))
ROUTE_RESULT = Message("route_result", (
    Field("schema", "schema", bound=ROUTE_RESULT_SCHEMA),
    Field("query", "object", bound=Message("route_result.query", _QUERY)),
    Field("algorithm", "str"),
    Field("found", "bool"),
    Field("feasible", "bool"),
    Field("covers_keywords", "bool"),
    Field("within_budget", "bool"),
    Field("score", "object", bound=Message("route_result.score", (
        Field("objective", "finite_number", "nullable"),
        Field("budget", "finite_number", "nullable"),
    ))),
    Field("route", "node_list", "nullable"),
    Field("failure_reason", "str", "nullable"),
    Field("epoch", "integer", "optional", range(2**63)),
    Field("explain", "object", "optional"),
), (_found_route_score, _feasible))
GRAPH_UPDATE = Message("graph_update", (
    Field("schema", "schema", "optional", GRAPH_UPDATE_SCHEMA),
    Field("ops", "list"),
))
_OP = Message("graph_update.ops[]", (Field("op", "choice", bound=OP_NAMES),))
_NODE = Field("node", "node_id")
_OPS = {
    "update_edge_cost": Message("update_edge_cost", (
        Field("u", "node_id"),
        Field("v", "node_id"),
        Field("objective", "positive_finite_number", "optional"),
        Field("budget", "positive_finite_number", "optional"),
    ), (_objective_or_budget,)),
    "close_node": Message("close_node", (_NODE,)),
    "open_node": Message("open_node", (_NODE,)),
    "update_keywords": Message("update_keywords", (_NODE, Field("keywords", "str_list"))),
}
_HEADER = Message("request header", (Field("x-kor-timeout-ms", "positive_finite_number"),))
# fmt: on

_ABSENT = object()


def _text(bound: object) -> str:
    """A bound as errors and the README print it."""
    if isinstance(bound, range):
        return f"{bound.start}..{bound.stop - 1}"
    if isinstance(bound, tuple):
        return ", ".join(bound)
    return "" if bound is None else str(bound)


def _read(message: Message, payload: object, where: str | None = None) -> dict:
    """Check *payload* against *message*; the value of each field."""
    where = where or message.title
    if not isinstance(payload, (dict, Mapping)):  # dict first: the common, fast case
        raise WireError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    values = {}
    for name, test, refusal, presence, bound, default in message.rows:
        value = payload.get(name, _ABSENT)
        if value is _ABSENT or value is None:
            if value is _ABSENT and presence != "optional":
                raise WireError(f"{where}: required field {name!r} is missing")
            if value is _ABSENT or presence != "required":
                values[name] = default
                continue
        if not test(value, bound):
            refusal = refusal.format(name=name, value=value, bound=_text(bound))
            raise WireError(f"{where}: {refusal}")
        values[name] = value
    for hook in message.hooks:
        refusal = hook(values)
        if refusal is not None:
            raise WireError(f"{where}: {refusal}")
    return values


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


#: Ends the refusal of a ``params`` name: where a deadline goes instead.
_DEADLINE_HINT = "; a deadline is the 'timeout' / 'timeout_ms' field or the x-kor-timeout-ms header"


def _spec(values: dict) -> dict:
    """A query request's values as the app submits them; a ``params`` name
    or value the algorithm refuses over the wire is a :class:`QueryError`."""
    algorithm, params = values["algorithm"], dict(values["params"])
    if params:
        check_parameters(algorithm, params, WIRE_PARAMETERS[algorithm], _DEADLINE_HINT)
    timeout = values["timeout"]
    if values["timeout_ms"] is not None:
        timeout = values["timeout_ms"] / 1000.0
    query = KORQuery(values["source"], values["target"], values["keywords"], values["budget_limit"])
    return {
        "query": query,
        "algorithm": algorithm,
        "params": params,
        "explain": values["explain"],
        "timeout": None if timeout is None else float(timeout),
    }


def parse_route_query(payload: object) -> dict:
    """Validate and normalise one ``kor.route_query.v1`` request body.

    Returns ``{"query": KORQuery, "algorithm": str, "params": dict,
    "explain": bool, "timeout": float | None}``.  Raises
    :class:`WireError` on any malformed field — the server maps that to
    a 400, never a 500 — and :class:`QueryError` for a ``params`` name
    outside :data:`~repro.core.engine.WIRE_PARAMETERS` (``trace``,
    ``binding`` and ``deadline`` among them) or a value of the wrong type.
    """
    return _spec(_read(ROUTE_QUERY, payload))


def parse_route_topk(payload: object) -> dict:
    """:func:`parse_route_query` of a ``/topk/stream`` body, plus its ``k``."""
    values = _read(ROUTE_TOPK, payload)
    return {**_spec(values), "k": values["k"]}


def parse_route_batch(payload: object) -> list[dict | QueryError]:
    """One spec per ``/batch`` slot, in order: a malformed envelope or slot
    refuses the batch (:class:`PayloadTooLarge` past ``MAX_BATCH_QUERIES``
    slots), a slot the engine would refuse holds its :class:`QueryError`."""
    queries = _read(ROUTE_BATCH, payload)["queries"]
    if len(queries) > MAX_BATCH_QUERIES:
        raise PayloadTooLarge(
            f"route_batch: {len(queries)} queries exceed the {MAX_BATCH_QUERIES}-query limit"
        )
    defaults = {key: payload[key] for key, *_ in _SLOT_DEFAULTS if key in payload}
    slots: list[dict | QueryError] = []
    for item in queries:
        values = _read(ROUTE_QUERY, {**defaults, **item} if isinstance(item, Mapping) else item)
        try:
            slots.append(_spec(values))
        except QueryError as refusal:
            slots.append(refusal)
    return slots


def parse_timeout_header(text: str) -> float:
    """An ``x-kor-timeout-ms`` header, in seconds, read as the body's field."""
    try:
        value: object = float(text)
    except ValueError:
        value = text
    return _read(_HEADER, {"x-kor-timeout-ms": value})["x-kor-timeout-ms"] / 1000.0


def parse_graph_update(payload: object) -> list[dict]:
    """Validate one ``kor.graph_update.v1`` body into mutation ops.

    Returns the ordered op list in exactly the wire shape
    :meth:`repro.graph.mutation.GraphMutator.apply_ops` consumes —
    shape-validated here (types, op names, required fields) so a
    malformed body maps to a 400; *semantic* validation (does the edge
    exist, is the node already closed) stays with the mutator, whose
    :class:`~repro.graph.mutation.MutationError` the server also maps
    to a 400.
    """
    parsed: list[dict] = []
    for position, op in enumerate(_read(GRAPH_UPDATE, payload)["ops"]):
        where = f"graph_update.ops[{position}]"
        kind = _read(_OP, op, where)["op"]
        values = _read(_OPS[kind], op, where)
        parsed.append({"op": kind, **{k: v for k, v in values.items() if v is not None}})
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


def encode_route_result(result: KORResult, explain: bool = False, epoch: int | None = None) -> dict:
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
        "query": _echo(result.query),
        "algorithm": result.algorithm,
        "found": result.found,
        "feasible": result.feasible,
        "covers_keywords": result.covers_keywords,
        "within_budget": result.within_budget,
        "score": _score(route),
        "route": [int(node) for node in route.nodes] if route is not None else None,
        "failure_reason": result.failure_reason,
    }
    if epoch is not None:
        # v1-compatible extension: only epoch-tracking servers emit it.
        payload["epoch"] = int(epoch)
    if explain:
        payload["explain"] = {"search": asdict(result.stats)}
    return payload


def encode_topk(spec: dict, routes: list[Route]) -> list[dict]:
    """``/topk/stream``'s NDJSON lines: a ``kor.route_topk.v1`` header for
    *spec* (a :func:`parse_route_topk` result), then one per ranked route."""
    header = {
        "schema": ROUTE_TOPK_SCHEMA,
        "query": _echo(spec["query"]),
        "algorithm": spec["algorithm"],
        "k": spec["k"],
        "count": len(routes),
    }
    ranked = [
        {"rank": rank, "nodes": [int(node) for node in route.nodes], "score": _score(route)}
        for rank, route in enumerate(routes, start=1)
    ]
    return [header, *ranked]


def _echo(query: KORQuery) -> dict:
    return {
        "source": int(query.source),
        "target": int(query.target),
        "keywords": list(query.keywords),
        "budget_limit": float(query.budget_limit),
    }


def _score(route: Route | None) -> dict:
    if route is None:
        return {"objective": None, "budget": None}
    return {"objective": float(route.objective_score), "budget": float(route.budget_score)}


def validate_route_result(payload: object) -> dict:
    """Check *payload* against ``kor.route_result.v1``; return it.

    Beyond per-field kinds this enforces the cross-field invariants that
    make a document *coherent*: the found/route/score consistency
    triangle (``found`` iff a route is present iff the score breakdown
    is non-null) and ``feasible``.  Result labels are *descriptive*
    (``greedy-1``, ``exact``…), not the request-side names, so
    ``algorithm`` need only be a non-empty string.  Raises
    :class:`WireError` with a pinpointed message.
    """
    _read(ROUTE_RESULT, payload)
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
        stats = SearchStats(**{k: v for k, v in explain["search"].items() if k in known})
    return KORResult(
        query=query,
        algorithm=payload["algorithm"],
        route=route,
        covers_keywords=payload["covers_keywords"],
        within_budget=payload["within_budget"],
        stats=stats,
        failure_reason=payload["failure_reason"],
    )


# ----------------------------------------------------------------------
# envelopes and the wire reference
# ----------------------------------------------------------------------


def encode_error(error: BaseException) -> dict:
    """A per-slot (or top-level) error object."""
    return {"error": {"type": type(error).__name__, "message": str(error)}}


def encode_batch(items: list[dict]) -> dict:
    """Wrap per-slot documents into a ``kor.route_batch.v1`` envelope."""
    return {"schema": ROUTE_BATCH_SCHEMA, "count": len(items), "results": items}


def _markdown(message: Message, heading: str) -> list[str]:
    lines = [heading, "", "| field | kind | presence | bound |", "|---|---|---|---|"]
    for name, kind, presence, bound, default in message.fields:
        if default is not None:
            presence += f", default `{str(default).lower()}`"
        text = f"`{bound.title}`" if isinstance(bound, Message) else _text(bound)
        lines.append(f"| `{name}` | {kind} | {presence} | {text} |")
    if message.hooks:
        lines += ["", "Rules: " + " ".join(hook.__doc__ for hook in message.hooks)]
    lines.append("")
    for field in message.fields:
        if isinstance(field.bound, Message):
            lines += _markdown(field.bound, f"`{field.bound.title}`:")
    return lines


def wire_reference() -> str:
    """The README's wire reference: the request and result tables, and
    :data:`~repro.core.engine.WIRE_PARAMETERS` as the ``params`` table."""
    k = _text(ROUTE_TOPK.fields[-1].bound)
    lines = _markdown(ROUTE_QUERY, f"**`{ROUTE_QUERY_SCHEMA}`** (`/topk/stream` adds `k` in {k}):")
    lines += _markdown(ROUTE_BATCH, "**`/batch`** (each default applies to slots without it):")
    lines += ["**`params`** per algorithm:", "", "| algorithm | parameter: type |", "|---|---|"]
    for algorithm, parameters in WIRE_PARAMETERS.items():
        pairs = ", ".join(f"`{name}`: {kind.__name__}" for name, kind in sorted(parameters.items()))
        lines.append(f"| `{algorithm}` | {pairs} |")
    lines += ["", *_markdown(ROUTE_RESULT, f"**`{ROUTE_RESULT_SCHEMA}`**:")]
    lines += _markdown(GRAPH_UPDATE, f"**`{GRAPH_UPDATE_SCHEMA}`** (each op: `op` + its table):")
    for name, op in _OPS.items():
        lines += _markdown(op, f"`{name}`:")
    return "\n".join(lines)
