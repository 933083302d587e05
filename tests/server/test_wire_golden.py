"""Golden wire differential: what the socket host puts on the wire.

``tests/golden/http_wire.json`` was recorded from the thread-per-connection
``http.server`` bridge (``python -m tests.server.test_wire_golden`` at the
last commit that had it) before the loop-native host replaced it: status,
header name/value set and body bytes of a fixed request list over a
real socket.  The host must reproduce every byte of it except the two
headers ``http.server`` stamped on each response — ``Date`` and ``Server``
— which were retired with it (see CHANGES.md, PR 19).  ``/stats`` carries
latencies, so only its shape (keys and value kinds) is pinned — and, the
document being additive, only the keys the golden recorded: a counter
added since (``scheduling.loop_hits``) must not need a new recording.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

import pytest

from repro.server import KORApp, StdlibServer, serve
from repro.server.stdlib import MAX_BODY_BYTES
from repro.service import AsyncQueryService, QueryService

from tests.server.test_failure_modes import query_payload, wait_until
from tests.service.test_differential import random_instance
from tests.service.test_frontend import SlowEngine

pytestmark = pytest.mark.timeout(120)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "http_wire.json"

#: Stamped by ``http.server`` on every response; retired with the bridge.
RETIRED_HEADERS = ("date", "server")


def raw(method: str, path: str, body: bytes = b"", content_length: str | None = None) -> bytes:
    """One ``Connection: close`` request as the bytes a client sends."""
    length = str(len(body)) if content_length is None else content_length
    return (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: golden\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1") + body


def post(path: str, payload: dict) -> bytes:
    return raw("POST", path, json.dumps(payload).encode())


def exchange(address, request: bytes, shape_only: bool = False) -> dict:
    """Send *request*, read until the server closes; the answer as a
    JSON-ready document (body undecoded: chunk framing stays visible)."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split()[1])
    headers = sorted(
        [name, value.strip()] for name, _, value in (line.partition(":") for line in lines)
    )
    if shape_only:
        headers = [pair for pair in headers if pair[0].lower() != "content-length"]
        return {"status": status, "headers": headers, "shape": shape(json.loads(body))}
    return {"status": status, "headers": headers, "body": body.decode("latin-1")}


def shape(value: object) -> object:
    """Keys and value kinds of a JSON document, values dropped."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def recorded_keys(value: object, golden: object) -> object:
    """*value* without the dict keys *golden* does not have, at any depth."""
    if isinstance(value, dict) and isinstance(golden, dict):
        return {
            key: recorded_keys(item, golden[key])
            for key, item in value.items()
            if key in golden
        }
    return value


def capture() -> dict:
    """Every golden case, in the fixed order the counters depend on."""
    engine, queries = random_instance(0)
    cases: dict[str, dict] = {}
    with serve(QueryService(engine, cache_capacity=16)) as server:
        address = server.address
        cases["query"] = exchange(address, post("/query", query_payload(queries[0])))
        cases["batch"] = exchange(
            address,
            post(
                "/batch",
                {"algorithm": "greedy", "queries": [query_payload(q) for q in queries[:3]]},
            ),
        )
        cases["bad_json"] = exchange(address, raw("POST", "/query", b"not json"))
        cases["not_found"] = exchange(address, raw("GET", "/no-such-endpoint"))
        cases["method_not_allowed"] = exchange(address, raw("GET", "/query"))
        cases["content_length_non_numeric"] = exchange(
            address, raw("POST", "/query", content_length="twelve")
        )
        cases["content_length_negative"] = exchange(
            address, raw("POST", "/query", content_length="-1")
        )
        cases["content_length_too_large"] = exchange(
            address, raw("POST", "/query", content_length=str(MAX_BODY_BYTES + 1))
        )
        cases["topk_stream"] = exchange(
            address, post("/topk/stream", query_payload(queries[0], k=3))
        )
        cases["healthz"] = exchange(address, raw("GET", "/healthz"))
        cases["stats"] = exchange(address, raw("GET", "/stats"), shape_only=True)

    slow = SlowEngine(engine, delay_seconds=0.4)
    front = AsyncQueryService(QueryService(slow, cache_capacity=0))
    app = KORApp(front, max_pending=1)
    with StdlibServer(app, frontend=front) as server:
        address = server.address
        cases["deadline"] = exchange(
            address, post("/query", query_payload(queries[0], timeout=0.01))
        )
        with socket.create_connection(address, timeout=30.0) as holder:
            holder.sendall(post("/query", query_payload(queries[1])))
            assert wait_until(lambda: app.pending == 1, 5.0)  # admitted: the one slot is taken
            cases["shed"] = exchange(address, post("/query", query_payload(queries[2])))
            while holder.recv(65536):
                pass
    return {"cases": cases}


def without_retired_headers(document: dict) -> dict:
    return {
        "cases": {
            name: {
                **case,
                "headers": [
                    pair for pair in case["headers"] if pair[0].lower() not in RETIRED_HEADERS
                ],
            }
            for name, case in document["cases"].items()
        }
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return without_retired_headers(json.loads(GOLDEN_PATH.read_text()))


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


#: The fixed request list, by case name, with the status each must draw.
CASES = {
    "query": 200,
    "batch": 200,
    "bad_json": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "content_length_non_numeric": 400,
    "content_length_negative": 400,
    "content_length_too_large": 413,
    "topk_stream": 200,
    "healthz": 200,
    "stats": 200,
    "deadline": 504,
    "shed": 503,
}


def test_the_golden_file_covers_the_request_list(golden):
    assert {name: case["status"] for name, case in golden["cases"].items()} == CASES
    assert ["retry-after", "1"] in golden["cases"]["shed"]["headers"]
    assert ["Transfer-Encoding", "chunked"] in golden["cases"]["topk_stream"]["headers"]
    assert golden["cases"]["topk_stream"]["body"].endswith("\r\n0\r\n\r\n")


def test_no_response_carries_a_retired_header(captured):
    for name, case in captured["cases"].items():
        names = {pair[0].lower() for pair in case["headers"]}
        assert not names & set(RETIRED_HEADERS), name


@pytest.mark.parametrize("name", list(CASES))
def test_host_reproduces_the_golden_wire(name, golden, captured):
    got, want = captured["cases"][name], golden["cases"][name]
    if "shape" in want:
        got = {**got, "shape": recorded_keys(got["shape"], want["shape"])}
    assert got == want


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
