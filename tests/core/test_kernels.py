"""Waves over the scalar engine: golden fingerprints and containment.

:func:`repro.service.backends.run_wave_on_engine` runs a wave's members
one after another through ``engine.run``.  Before the lockstep numpy driver was
deleted, what *it* produced for the seeded streams below — route nodes,
scores, feasibility flags, failure reasons **and every per-label
statistic** — was dumped to ``tests/golden/wave_fingerprints.json``;
these tests pin that the surviving path reproduces the file (and that
the sequential ``engine.run`` loop, the reference every differential
suite compares against, does too), plus per-member containment,
mid-wave deadlines, the canonical domination comparator and
BucketBound's deterministic bucket-edge indexing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketbound import BucketQueue
from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS
from repro.core.label import dominates_scores
from repro.exceptions import DeadlineExceeded, QueryError
from repro.service.backends import WaveTask, run_wave_on_engine

from tests.service.test_differential import random_instance

#: What the lockstep wave path produced at the commit that deleted it
#: (``flat``: one wave per stream), and what a two-cell
#: ``ShardedQueryService.execute`` per stream produces (``sharded``,
#: identical on every backend; recorded when a sharded query became one
#: search on the cross-cell engine).  Stat counters are stored in
#: ``stat_fields`` order.
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "golden" / "wave_fingerprints.json").read_text()
)

#: Stats fields a wave must reproduce exactly (runtime excluded: wall
#: time legitimately differs from run to run).
STAT_FIELDS = (
    "labels_created",
    "labels_enqueued",
    "labels_pruned_budget",
    "labels_pruned_bound",
    "labels_pruned_dominated",
    "labels_pruned_strategy2",
    "labels_evicted",
    "jump_labels_created",
    "loops",
    "bound_updates",
    "buckets_opened",
)

assert tuple(GOLDEN["stat_fields"]) == STAT_FIELDS

#: The algorithms the two optimisation strategies exist for.
LABEL_ALGORITHMS = ("bucketbound", "exact", "osscaling")
STRATEGIES_OFF = {"use_strategy1": False, "use_strategy2": False}


def record(result) -> dict:
    """One result in the golden file's shape."""
    route = result.route
    return {
        "route": list(route.nodes) if route is not None else None,
        "os": round(route.objective_score, 9) if route is not None else None,
        "bs": round(route.budget_score, 9) if route is not None else None,
        "feasible": result.feasible,
        "covers_keywords": result.covers_keywords,
        "within_budget": result.within_budget,
        "failure_reason": result.failure_reason,
        "stats": [getattr(result.stats, name) for name in STAT_FIELDS],
    }


def outcome_record(result, error) -> dict:
    """One wave member / batch slot in the golden file's shape."""
    return {"error": type(error).__name__} if error is not None else record(result)


def scalar_records(engine, queries, algorithm, params):
    """The sequential ``engine.run`` loop, one record per query."""
    records = []
    for query in queries:
        try:
            result = engine.run(query, algorithm=algorithm, **params)
        except Exception as error:  # noqa: BLE001 - mirrored per slot
            records.append(outcome_record(None, error))
        else:
            records.append(record(result))
    return records


def run_as_wave(engine, queries, algorithm, params=None, deadline=None):
    """One wave of *queries* on *engine*, as a backend runs it."""
    task = WaveTask.build("wave", queries, algorithm, params, deadline=deadline)
    return run_wave_on_engine(engine, task)


def wave_records(members):
    return [outcome_record(member.result, member.error) for member in members]


class TestWaveDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_wave_reproduces_golden(self, algorithm):
        """Fingerprints and all per-label counters, 8 seeded instances:
        the wave and the sequential reference loop both equal what the
        lockstep path produced."""
        for seed in range(8):
            engine, queries = random_instance(seed)
            golden = GOLDEN["flat"][f"{algorithm}/strategies-on/seed-{seed}"]
            wave = wave_records(run_as_wave(engine, queries, algorithm))
            assert wave == golden, f"seed={seed} algorithm={algorithm}"
            loop = scalar_records(engine, queries, algorithm, {})
            assert loop == golden, f"seed={seed} algorithm={algorithm}"

    @pytest.mark.parametrize("algorithm", LABEL_ALGORITHMS)
    def test_wave_reproduces_golden_with_strategies_off(self, algorithm):
        for seed in range(8):
            engine, queries = random_instance(seed)
            golden = GOLDEN["flat"][f"{algorithm}/strategies-off/seed-{seed}"]
            wave = wave_records(run_as_wave(engine, queries, algorithm, STRATEGIES_OFF))
            assert wave == golden, f"seed={seed} algorithm={algorithm}"

    def test_single_member_wave_matches_scalar(self):
        """A wave of one is a solo run."""
        engine, queries = random_instance(3)
        for query in queries[:3]:
            assert wave_records(run_as_wave(engine, [query], "bucketbound")) == scalar_records(
                engine, [query], "bucketbound", {}
            )

    def test_unknown_parameter_fails_like_solo_runs(self):
        """Parameter-surface parity: a bogus kwarg errors each member
        with the same exception type N solo runs would raise."""
        engine, queries = random_instance(1)
        expected = scalar_records(engine, queries, "osscaling", {"bogus": 1})
        got = wave_records(run_as_wave(engine, queries, "osscaling", {"bogus": 1}))
        assert got == expected
        assert all("error" in member for member in got)

    def test_poisoned_member_is_contained(self):
        """One unbindable query errors its slot; survivors are exact."""
        from repro.core.query import KORQuery

        engine, queries = random_instance(4)
        bad = KORQuery(9_999, queries[0].target, queries[0].keywords, 5.0)
        wave = list(queries[:3]) + [bad] + list(queries[3:6])
        outcomes = run_as_wave(engine, wave, "bucketbound", {})
        assert isinstance(outcomes[3].error, QueryError)
        expected = scalar_records(engine, queries[:3] + queries[3:6], "bucketbound", {})
        survivors = [o for i, o in enumerate(outcomes) if i != 3]
        assert wave_records(survivors) == expected


class _CountdownDeadline(Deadline):
    """Deadline double expiring on its Nth checkpoint — ``check()`` and
    ``tick()`` alike, i.e. a stride of one — so mid-wave expiry is
    deterministic, independent of the wall clock.  ``late`` counts the
    checkpoints reached after expiry.  A :class:`Deadline` subclass: the
    engine refuses a ``deadline`` of any other type."""

    def __init__(self, checks: int) -> None:
        self.checks = checks
        self.late = 0

    def check(self) -> None:
        self.checks -= 1
        if self.checks < 0:
            self.late += 1
            raise DeadlineExceeded("countdown expired")

    tick = check


class TestWaveDeadline:
    def test_mid_wave_expiry_fails_the_running_member_and_every_later_one(self):
        """Expiry mid-wave: the members that finished keep their exact
        results, the running member and every later one fail with
        ``DeadlineExceeded`` — nothing else — and promptly: the running
        member stops at its next checkpoint and each later member costs
        one refused check."""
        engine, queries = random_instance(0)
        # Generous budget first: count the checkpoints a full wave passes.
        probe = _CountdownDeadline(10_000)
        clean = run_as_wave(engine, queries, "osscaling", {}, deadline=probe)
        assert all(o.error is None for o in clean)
        used = 10_000 - probe.checks
        # Two checkpoints per member come before its search (the wave's
        # and engine.run's); the rest tick inside the search loops.
        assert used > 2 * len(queries), "searches must tick the deadline"

        mid = _CountdownDeadline(used // 2)
        outcomes = run_as_wave(engine, queries, "osscaling", {}, deadline=mid)
        finished = [i for i, o in enumerate(outcomes) if o.error is None]
        expired = [i for i, o in enumerate(outcomes) if isinstance(o.error, DeadlineExceeded)]
        assert finished and expired, "the countdown must run out mid-wave"
        assert finished + expired == list(range(len(queries)))
        scalar = scalar_records(engine, queries, "osscaling", {})
        assert wave_records(outcomes[: len(finished)]) == scalar[: len(finished)]
        assert mid.late == len(expired)

    def test_pre_expired_deadline_errors_every_member(self):
        engine, queries = random_instance(1)
        outcomes = run_as_wave(engine, queries, "bucketbound", {}, deadline=_CountdownDeadline(0))
        assert all(isinstance(o.error, DeadlineExceeded) for o in outcomes)


# ----------------------------------------------------------------------
# the canonical domination comparator
# ----------------------------------------------------------------------

# A tiny float pool forces equal-score/equal-budget collisions — the
# tie-breaking cases where a drifted comparator would diverge.
TIE_FLOATS = st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.0 + 1e-9, 3.0, float("inf")])


class TestDominationComparator:
    @given(sos=TIE_FLOATS, bs=TIE_FLOATS)
    @settings(max_examples=50, deadline=None)
    def test_equal_scores_dominate_both_ways(self, sos, bs):
        """Non-strict comparator: exact ties dominate symmetrically, so
        a store can never keep a duplicate of a label it already holds."""
        assert dominates_scores(sos, bs, sos, bs)

    def test_label_dominates_uses_the_canonical_comparator(self):
        from repro.core.label import Label, VIA_ROOT

        a = Label(node=0, mask=0b11, scaled_os=1.0, os=1.0, bs=2.0, parent=None, via=VIA_ROOT)
        b = Label(node=0, mask=0b01, scaled_os=1.0, os=1.0, bs=2.0, parent=None, via=VIA_ROOT)
        assert a.dominates(b)  # superset mask, tied scores
        assert not b.dominates(a)  # subset mask never dominates


# ----------------------------------------------------------------------
# BucketQueue edge-value determinism
# ----------------------------------------------------------------------


class TestBucketIndexDeterminism:
    def test_exact_edge_values_open_their_own_bucket(self):
        """``low == base * beta^k`` (computed exactly as the queue grows
        its edge list) must land in bucket k — the boundary used to
        depend on ``log`` rounding and could go either way."""
        queue = BucketQueue(base=0.5, beta=1.2)
        edge = 0.5
        for k in range(40):
            assert queue.bucket_index(edge) == k, f"edge {k}"
            edge *= 1.2

    def test_below_base_clamps_to_zero(self):
        queue = BucketQueue(base=1.0, beta=2.0)
        assert queue.bucket_index(0.0) == 0
        assert queue.bucket_index(-5.0) == 0
        assert queue.bucket_index(1.0) == 0

    def test_non_finite_lows_are_rejected(self):
        queue = BucketQueue(base=1.0, beta=2.0)
        with pytest.raises(ValueError):
            queue.bucket_index(float("inf"))
        with pytest.raises(ValueError):
            queue.bucket_index(float("nan"))
