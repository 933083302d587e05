"""The front door never answers 500, whatever JSON arrives.

Arbitrary JSON — ``NaN`` / ``±Infinity``, integers past 2**63, nested
lists and objects — goes to :class:`~repro.server.app.KORApp` over the
Figure-1 graph as a whole body, as one field of a valid body and as one
``params`` value, at ``/query``, ``/batch``, ``/topk/stream`` and
``/admin/update``.  Every status is 200, 400, 413 or 504; every route
result answered is a valid ``kor.route_result.v1`` document, and a
``/batch`` slot that fails fails as a client or deadline error.
"""

import asyncio

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import ALGORITHMS, WIRE_PARAMETERS, KOREngine
from repro.graph.generators import figure_1_graph
from repro.server import KORApp, validate_route_result
from repro.service import AsyncQueryService, QueryService

from tests.server.test_failure_modes import request_with_headers

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: What the front door may answer: never a 500.
STATUSES = {200, 400, 413, 504}
#: What a failed ``/batch`` slot may be: the client's error or the clock.
SLOT_ERRORS = {"QueryError", "WireError", "DeadlineExceeded", "TimeoutError"}

QUERY = {"source": 0, "target": 7, "keywords": ["t1", "t2"], "budget_limit": 10.0}
#: A valid body per endpoint, and the fields one test replaces in it.
BODIES = {
    "/query": QUERY,
    "/batch": {"queries": [QUERY]},
    "/topk/stream": {**QUERY, "k": 2},
    "/admin/update": {"ops": [{"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.0}]},
}
QUERY_FIELDS = [*QUERY, "schema", "algorithm", "params", "explain", "timeout", "timeout_ms"]
FIELDS = {
    "/query": QUERY_FIELDS,
    "/batch": ["queries", "algorithm", "params", "explain", "timeout", "timeout_ms"],
    "/topk/stream": [*QUERY_FIELDS, "k"],
    "/admin/update": ["schema", "ops"],
}
PARAMETERS = sorted(
    {name for names in WIRE_PARAMETERS.values() for name in names}
    | {"trace", "binding", "deadline", "candidates"}
)


def containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    containers,
    max_leaves=8,
)
paths = st.sampled_from(sorted(BODIES))


def post(path: str, body: object) -> tuple[int, object]:
    """One request to a fresh app over a fresh Figure-1 engine."""

    async def main():
        front = AsyncQueryService(QueryService(KOREngine(figure_1_graph()), cache_capacity=0))
        try:
            return await request_with_headers(KORApp(front), body, [], path)
        finally:
            await front.close()

    return asyncio.run(main())


def check(path: str, body: object) -> None:
    status, payload = post(path, body)
    assert status in STATUSES, (status, payload)
    if status != 200:
        return
    if path == "/query":
        validate_route_result(payload)
    elif path == "/batch":
        for item in payload["results"]:
            if "error" in item:
                assert item["error"]["type"] in SLOT_ERRORS, item
            else:
                validate_route_result(item)


@SETTINGS
@given(path=paths, body=json_values)
def test_any_body(path, body):
    check(path, body)


@SETTINGS
@given(path=paths, data=st.data(), value=json_values)
def test_any_value_in_one_field(path, data, value):
    field = data.draw(st.sampled_from(FIELDS[path]))
    body = dict(BODIES[path])
    if path == "/admin/update" and data.draw(st.booleans()):
        op_field = data.draw(st.sampled_from(["op", "u", "v", "objective", "budget", "node"]))
        body["ops"] = [{**body["ops"][0], op_field: value}]
    elif path == "/batch" and data.draw(st.booleans()):
        body["queries"] = [{**QUERY, data.draw(st.sampled_from(QUERY_FIELDS)): value}]
    else:
        body[field] = value
    check(path, body)


@SETTINGS
@given(
    path=st.sampled_from(["/query", "/batch", "/topk/stream"]),
    algorithm=st.sampled_from(ALGORITHMS),
    name=st.sampled_from(PARAMETERS),
    value=json_values,
)
# Shrunk from a run against the commit before parameter types were
# checked: a null beta reached BucketBound's bucket grid and failed there
# with a TypeError, a 500.
@example(path="/query", algorithm="bucketbound", name="beta", value=None)
def test_any_value_of_one_parameter(path, algorithm, name, value):
    query = {**QUERY, "algorithm": algorithm, "params": {name: value}}
    body = {"/query": query, "/batch": {"queries": [query]}, "/topk/stream": {**query, "k": 2}}
    check(path, body[path])
