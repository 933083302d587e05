"""The wire contract: ``kor.route_result.v1`` round-trips and rejections.

The schema is the serving tier's boundary — these tests pin both
directions: every engine result survives encode → validate → decode with
its differential fingerprint intact, and malformed documents are
rejected with :class:`~repro.server.schema.WireError`, never emitted.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.engine import ALGORITHMS
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.server.schema import (
    ROUTE_BATCH_SCHEMA,
    ROUTE_RESULT_SCHEMA,
    WireError,
    encode_batch,
    encode_error,
    encode_route_result,
    encode_update_ack,
    decode_route_result,
    parse_graph_update,
    parse_route_batch,
    parse_route_query,
    validate_route_result,
    wire_reference,
)

from tests.service.test_differential import fingerprint, random_instance

README = Path(__file__).resolve().parents[2] / "README.md"
BEGIN, END = "<!-- wire-reference:begin -->\n", "\n<!-- wire-reference:end -->"


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_round_trips_fingerprint_exact(self, algorithm):
        engine, queries = random_instance(0)
        for query in queries:
            result = engine.run(query, algorithm=algorithm)
            document = validate_route_result(encode_route_result(result))
            assert document["schema"] == ROUTE_RESULT_SCHEMA
            assert fingerprint(decode_route_result(document)) == fingerprint(result)

    def test_round_trip_survives_json_serialisation(self):
        """The actual wire: dumps/loads between encode and decode."""
        engine, queries = random_instance(3)
        result = engine.run(queries[0], algorithm="bucketbound")
        body = json.dumps(encode_route_result(result), allow_nan=False)
        assert fingerprint(decode_route_result(json.loads(body))) == fingerprint(result)

    def test_routeless_result_round_trips_with_null_scores(self):
        """Missing vocabulary => no route; scores must be null on the
        wire and come back as inf via the KORResult properties."""
        engine, _queries = random_instance(0)
        query = KORQuery(0, 1, ("no-such-keyword-anywhere",), 4.0)
        result = engine.run(query, algorithm="bucketbound")
        assert result.route is None
        document = validate_route_result(encode_route_result(result))
        assert document["route"] is None
        assert document["score"] == {"objective": None, "budget": None}
        decoded = decode_route_result(document)
        assert fingerprint(decoded) == fingerprint(result)
        assert decoded.objective_score == float("inf")

    def test_explain_payload_carries_search_counters(self):
        engine, queries = random_instance(1)
        result = engine.run(queries[0], algorithm="bucketbound")
        document = validate_route_result(encode_route_result(result, explain=True))
        assert document["explain"]["search"]["labels_created"] >= 0
        decoded = decode_route_result(document)
        assert decoded.stats.labels_created == result.stats.labels_created


def valid_document():
    engine, queries = random_instance(0)
    return encode_route_result(engine.run(queries[0], algorithm="bucketbound"))


class TestValidateRejections:
    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="expected a JSON object"):
            validate_route_result(["not", "an", "object"])

    @pytest.mark.parametrize(
        "field",
        (
            "schema",
            "query",
            "algorithm",
            "found",
            "feasible",
            "covers_keywords",
            "within_budget",
            "score",
            "route",
            "failure_reason",
        ),
    )
    def test_every_required_field_is_enforced(self, field):
        document = valid_document()
        del document[field]
        with pytest.raises(WireError, match=f"{field!r} is missing"):
            validate_route_result(document)

    def test_wrong_schema_name_rejected(self):
        document = valid_document()
        document["schema"] = "kor.route_result.v0"
        with pytest.raises(WireError, match="schema must be"):
            validate_route_result(document)

    def test_bool_does_not_satisfy_numeric_fields(self):
        document = valid_document()
        document["query"]["source"] = True  # bool is an int subclass
        with pytest.raises(WireError, match="'source'"):
            validate_route_result(document)

    def test_found_must_mirror_route_presence(self):
        document = valid_document()
        document["found"] = not document["found"]
        with pytest.raises(WireError, match="'found' must mirror"):
            validate_route_result(document)

    def test_score_nulls_must_track_route(self):
        document = valid_document()
        assert document["route"] is not None
        document["score"]["objective"] = None
        with pytest.raises(WireError, match="score breakdown"):
            validate_route_result(document)

    def test_feasible_consistency_enforced(self):
        document = valid_document()
        document["feasible"] = not document["feasible"]
        with pytest.raises(WireError, match="'feasible'"):
            validate_route_result(document)

    def test_route_nodes_must_be_integers(self):
        document = valid_document()
        if document["route"] is None:
            pytest.skip("battery produced no route for this seed")
        document["route"] = [str(node) for node in document["route"]]
        with pytest.raises(WireError, match="integer node ids"):
            validate_route_result(document)

    def test_keywords_must_be_strings(self):
        document = valid_document()
        document["query"]["keywords"] = [1, 2]
        with pytest.raises(WireError, match="keywords"):
            validate_route_result(document)

    def test_explain_must_be_an_object_when_present(self):
        document = valid_document()
        document["explain"] = "counters"
        with pytest.raises(WireError, match="'explain'"):
            validate_route_result(document)


class TestParseRouteQuery:
    def payload(self, **overrides):
        base = {"source": 0, "target": 1, "keywords": ["pub"], "budget_limit": 4.0}
        base.update(overrides)
        return base

    def test_defaults(self):
        spec = parse_route_query(self.payload())
        assert spec["algorithm"] == "bucketbound"
        assert spec["params"] == {}
        assert spec["explain"] is False
        assert spec["timeout"] is None
        assert spec["query"] == KORQuery(0, 1, ("pub",), 4.0)

    def test_explicit_fields(self):
        spec = parse_route_query(
            self.payload(
                algorithm="osscaling",
                params={"epsilon": 0.25},
                explain=True,
                timeout=2.5,
            )
        )
        assert spec["algorithm"] == "osscaling"
        assert spec["params"] == {"epsilon": 0.25}
        assert spec["explain"] is True
        assert spec["timeout"] == 2.5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(WireError, match="unknown algorithm"):
            parse_route_query(self.payload(algorithm="dijkstra"))

    def test_unsupported_schema_rejected(self):
        with pytest.raises(WireError, match="unsupported schema"):
            parse_route_query(self.payload(schema="kor.route_query.v9"))

    def test_missing_field_rejected(self):
        with pytest.raises(WireError, match="'budget_limit' is missing"):
            parse_route_query({"source": 0, "target": 1, "keywords": []})

    def test_non_string_keywords_rejected(self):
        with pytest.raises(WireError, match="keywords"):
            parse_route_query(self.payload(keywords=[3]))

    @pytest.mark.parametrize("timeout", (0, -1.0, "soon", True, float("nan"), float("inf")))
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(WireError, match="timeout"):
            parse_route_query(self.payload(timeout=timeout))

    def test_params_must_be_an_object(self):
        with pytest.raises(WireError, match="params"):
            parse_route_query(self.payload(params=[1, 2]))

    @pytest.mark.parametrize("budget", (float("inf"), float("-inf"), float("nan"), 10**400))
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(WireError, match="'budget_limit' must be a finite number"):
            parse_route_query(self.payload(budget_limit=budget))

    def test_keyword_count_is_capped(self):
        from repro.server.schema import MAX_QUERY_KEYWORDS

        words = [f"w{index}" for index in range(MAX_QUERY_KEYWORDS + 1)]
        assert len(parse_route_query(self.payload(keywords=words[:-1]))["query"].keywords) == 64
        with pytest.raises(WireError, match="65 keywords exceed the 64-keyword limit"):
            parse_route_query(self.payload(keywords=words))


class TestParseRouteBatch:
    SLOT = {"source": 0, "target": 1, "keywords": ["pub"], "budget_limit": 4.0}

    def test_envelope_defaults_apply_to_slots_that_leave_them_out(self):
        own = {**self.SLOT, "algorithm": "greedy", "timeout": 2.0}
        first, second = parse_route_batch(
            {"algorithm": "osscaling", "timeout": 1.0, "queries": [self.SLOT, own]}
        )
        assert (first["algorithm"], first["timeout"]) == ("osscaling", 1.0)
        assert (second["algorithm"], second["timeout"]) == ("greedy", 2.0)

    def test_a_slot_the_engine_would_refuse_fails_alone(self):
        refused = {**self.SLOT, "params": {"epsilon": "x"}}
        for slot in ({**self.SLOT, "budget_limit": -1.0}, refused):
            spec, refusal = parse_route_batch({"queries": [self.SLOT, slot]})
            assert spec["query"] == KORQuery(0, 1, ("pub",), 4.0)
            assert type(refusal) is QueryError

    @pytest.mark.parametrize(
        "body",
        (
            {"queries": []},
            {"queries": [3]},
            {"queries": [{**SLOT, "source": -1}]},
            {"queries": [SLOT], "timeout": float("nan")},
        ),
    )
    def test_a_malformed_envelope_or_slot_refuses_the_batch(self, body):
        with pytest.raises(WireError):
            parse_route_batch(body)


class TestEnvelopes:
    def test_batch_envelope(self):
        envelope = encode_batch([{"a": 1}, {"b": 2}])
        assert envelope["schema"] == ROUTE_BATCH_SCHEMA
        assert envelope["count"] == 2
        assert envelope["results"] == [{"a": 1}, {"b": 2}]

    def test_error_envelope(self):
        envelope = encode_error(WireError("bad payload"))
        assert envelope == {"error": {"type": "WireError", "message": "bad payload"}}


class TestGraphUpdateWire:
    """The ``kor.graph_update.v1`` / ``..._ack.v1`` surfaces (ISSUE 9)."""

    def payload(self, **overrides):
        body = {
            "schema": "kor.graph_update.v1",
            "ops": [
                {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.0},
                {"op": "close_node", "node": 2},
                {"op": "open_node", "node": 2},
                {"op": "update_keywords", "node": 1, "keywords": ["pub"]},
            ],
        }
        body.update(overrides)
        return body

    def test_parse_returns_mutator_shaped_ops(self):
        ops = parse_graph_update(self.payload())
        assert [op["op"] for op in ops] == [
            "update_edge_cost", "close_node", "open_node", "update_keywords",
        ]
        assert ops[0] == {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.0}
        assert ops[3]["keywords"] == ["pub"]

    def test_schema_field_is_optional_but_checked(self):
        body = self.payload()
        del body["schema"]
        assert len(parse_graph_update(body)) == 4
        with pytest.raises(WireError, match="unsupported schema"):
            parse_graph_update(self.payload(schema="kor.graph_update.v9"))

    def test_ops_must_be_a_non_empty_list(self):
        for ops in ([], None, "close it all"):
            with pytest.raises(WireError, match="non-empty list"):
                parse_graph_update(self.payload(ops=ops))

    def test_unknown_op_is_rejected_with_position(self):
        with pytest.raises(WireError, match=r"ops\[0\].*unknown op"):
            parse_graph_update(self.payload(ops=[{"op": "set_on_fire"}]))

    def test_update_edge_cost_needs_a_weight(self):
        with pytest.raises(WireError, match="'objective', 'budget', or both"):
            parse_graph_update(self.payload(ops=[{"op": "update_edge_cost", "u": 0, "v": 1}]))

    @pytest.mark.parametrize("weight", (0, -1.5, "cheap", True))
    def test_non_positive_weights_are_rejected(self, weight):
        with pytest.raises(WireError):
            parse_graph_update(
                self.payload(
                    ops=[{"op": "update_edge_cost", "u": 0, "v": 1,
                          "objective": weight}]
                )
            )

    @pytest.mark.parametrize("node", (-1, 1.5, "zero", True, None))
    def test_bad_node_ids_are_rejected(self, node):
        with pytest.raises(WireError):
            parse_graph_update(self.payload(ops=[{"op": "close_node", "node": node}]))

    def test_bad_keywords_are_rejected(self):
        for keywords in (None, "pub", ["pub", ""], [1]):
            with pytest.raises(WireError, match="keywords"):
                parse_graph_update(
                    self.payload(
                        ops=[{"op": "update_keywords", "node": 0,
                              "keywords": keywords}]
                    )
                )

    def test_ack_envelope(self):
        ack = encode_update_ack(7, applied=3)
        assert ack == {
            "schema": "kor.graph_update_ack.v1",
            "epoch": 7,
            "applied": 3,
        }


class TestResultEpochStamp:
    """The additive ``epoch`` field on ``kor.route_result.v1``."""

    def result(self):
        engine, queries = random_instance(0)
        return engine.run(queries[0], algorithm="exact")

    def test_epoch_is_absent_unless_supplied(self):
        document = encode_route_result(self.result())
        assert "epoch" not in document
        validate_route_result(document)

    def test_epoch_round_trips_and_validates(self):
        document = encode_route_result(self.result(), epoch=5)
        assert document["epoch"] == 5
        validate_route_result(document)
        json.loads(json.dumps(document))  # wire-safe

    @pytest.mark.parametrize("epoch", (-1, 1.5, "five", True))
    def test_bad_epoch_is_rejected(self, epoch):
        document = encode_route_result(self.result())
        document["epoch"] = epoch
        with pytest.raises(WireError, match="epoch"):
            validate_route_result(document)


def test_readme_wire_reference_is_rendered_from_the_tables():
    """README's wire reference is ``wire_reference()``'s output, so a
    change to a field table, a hook or a search signature shows up there."""
    text = README.read_text()
    assert text.count(BEGIN) == text.count(END) == 1
    assert text.split(BEGIN)[1].split(END)[0] == wire_reference()


if __name__ == "__main__":
    head, rest = README.read_text().split(BEGIN)
    README.write_text(head + BEGIN + wire_reference() + END + rest.split(END)[1])
    print(f"wrote the wire reference into {README}")
