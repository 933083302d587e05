"""Serving-mode metrics: latency percentiles, hit rate, throughput.

One :class:`ServiceStats` instance lives inside each ``QueryService``;
every answered query records a latency sample (cache hits included —
their near-zero latencies are what a cache is *for*) plus whether it hit.
``snapshot()`` freezes the aggregates the benchmark harness reports.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ServiceStats", "StatsSnapshot", "percentile"]

#: Latency samples a :class:`ServiceStats` keeps for its percentiles.
LATENCY_WINDOW = 8192


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation, 0.0 if empty.

    Matches ``numpy.percentile``'s default method but avoids forcing the
    hot recording path through array conversions.
    """
    return _percentile_of_sorted(sorted(samples), q)


def _percentile_of_sorted(ordered: list[float], q: float) -> float:
    """:func:`percentile` over samples that are already sorted."""
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable aggregate view of one :class:`ServiceStats`."""

    queries: int
    errors: int
    cache_hits: int
    cache_misses: int
    p50_latency_seconds: float
    p95_latency_seconds: float
    mean_latency_seconds: float
    busy_seconds: float
    #: Tail latency over the same window as p50/p95 (the serving tier's
    #: SLO currency: the network front door gates on it).
    p99_latency_seconds: float = 0.0
    #: The latency SLO the recording service was configured with (None =
    #: no SLO accounting).
    slo_seconds: float | None = None
    #: Queries answered slower than ``slo_seconds`` (0 without an SLO).
    slo_violations: int = 0
    #: HTTP endpoint -> ``{"requests": n, "errors": n}`` (empty off the
    #: network path; filled by the server tier).
    endpoints: dict = field(default_factory=dict)
    #: Shard key -> tasks executed there (the flat service's one cell
    #: included; empty for the async front end).
    shard_tasks: dict = field(default_factory=dict)
    #: Shard key -> tasks that raised there.
    shard_errors: dict = field(default_factory=dict)
    #: Outcomes of a sync service's searches: how many computed queries
    #: the one cell's engine (``cell``) or the cross-cell engine
    #: (``crosscell``) answered with a feasible route, how many were
    #: proven infeasible (``infeasible``) and how many failed outright
    #: (``error``).
    merge_wins: dict = field(default_factory=dict)
    #: Requests served by coalescing onto another caller's in-flight
    #: computation (single-flight) instead of computing themselves.
    coalesced: int = 0
    #: Requests that gave up waiting (async per-request timeouts).
    timeouts: int = 0
    #: Requests refused at the front door by admission control (the
    #: HTTP tier's 503 + Retry-After path); they never reach the engine.
    shed: int = 0
    #: Deepest submission queue observed (in-flight backend tasks or
    #: pending async requests, whichever the recorder measures).
    queue_depth_peak: int = 0
    #: Lane counters of a process backend (``hits`` / ``misses``: whether
    #: a wave's lane had already run its shard; ``dead_worker_fallbacks``);
    #: empty for in-process backends, which have no lanes.
    pinning: dict = field(default_factory=dict)
    #: Wave-dispatch counters (``formed`` / ``members`` / ``capacity`` /
    #: ``solo_fallbacks`` plus the derived ``mean_members`` and
    #: ``fill_rate``); empty for services that never formed a wave.
    #: Additive optional field of ``kor.service_stats.v1``.
    waves: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Cache hits per answered query (0.0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def slo_violation_rate(self) -> float:
        """SLO violations per answered query (0.0 when idle or no SLO)."""
        return self.slo_violations / self.queries if self.queries else 0.0

    def slo_budget_used(self, budget_fraction: float = 0.01) -> float:
        """Fraction of the SLO error budget consumed.

        An error budget of ``budget_fraction`` (default 1%) allows that
        share of queries to miss the SLO; 1.0 means the budget is spent,
        values above 1.0 mean the service is in violation.
        """
        if budget_fraction <= 0.0:
            raise ValueError(f"budget_fraction must be > 0, got {budget_fraction}")
        return self.slo_violation_rate / budget_fraction

    @property
    def throughput_qps(self) -> float:
        """Queries per second of busy time (inf for all-hit workloads
        measured below clock resolution, 0.0 when idle)."""
        if not self.queries:
            return 0.0
        if self.busy_seconds <= 0.0:
            return float("inf")
        return self.queries / self.busy_seconds

    def describe(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.queries} queries ({self.errors} errors), "
            f"hit rate {100.0 * self.hit_rate:.1f}%, "
            f"p50 {1000.0 * self.p50_latency_seconds:.3f} ms, "
            f"p95 {1000.0 * self.p95_latency_seconds:.3f} ms, "
            f"p99 {1000.0 * self.p99_latency_seconds:.3f} ms, "
            f"{self.throughput_qps:.0f} qps"
        )
        if self.slo_seconds is not None:
            line += (
                f"; SLO {1000.0 * self.slo_seconds:.0f} ms: "
                f"{self.slo_violations} violations "
                f"({100.0 * self.slo_violation_rate:.2f}%)"
            )
        if self.shard_tasks:
            shards = ", ".join(
                f"{shard}={count}" for shard, count in sorted(self.shard_tasks.items())
            )
            line += f"; shard tasks: {shards}"
        if self.merge_wins:
            wins = ", ".join(
                f"{winner}={count}" for winner, count in sorted(self.merge_wins.items())
            )
            line += f"; merge wins: {wins}"
        if self.coalesced or self.timeouts or self.shed:
            line += (
                f"; coalesced {self.coalesced}, timeouts {self.timeouts}, "
                f"shed {self.shed}"
            )
        if self.queue_depth_peak:
            line += f"; peak queue depth {self.queue_depth_peak}"
        if self.pinning:
            pins = ", ".join(f"{name}={count}" for name, count in sorted(self.pinning.items()))
            line += f"; pinning: {pins}"
        if self.waves:
            line += (
                f"; waves: {self.waves.get('formed', 0)} formed, "
                f"mean {self.waves.get('mean_members', 0.0):.1f} members, "
                f"fill {100.0 * self.waves.get('fill_rate', 0.0):.0f}%, "
                f"{self.waves.get('solo_fallbacks', 0)} solo"
            )
        return line


class ServiceStats:
    """Thread-safe accumulator behind :meth:`snapshot`.

    ``busy_seconds`` sums *wall* time of the service's serve calls (a
    batch counts once, however many workers it fanned out over), so the
    throughput it yields is what a caller actually observed.

    Latency samples live in a bounded sliding window (the
    :data:`LATENCY_WINDOW` most recent queries) so a long-lived service does not grow without bound;
    the percentiles are therefore *recent* percentiles, while the
    query/hit/error counters cover the whole lifetime.
    """

    def __init__(self, slo_seconds: float | None = None) -> None:
        if slo_seconds is not None and slo_seconds <= 0.0:
            raise ValueError(f"slo_seconds must be > 0 or None, got {slo_seconds}")
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._queries = 0
        self._errors = 0
        self._hits = 0
        self._misses = 0
        self._busy_seconds = 0.0
        self._shard_tasks: dict[str, int] = {}
        self._shard_errors: dict[str, int] = {}
        self._merge_wins: dict[str, int] = {}
        self._coalesced = 0
        self._timeouts = 0
        self._shed = 0
        self._queue_depth_peak = 0
        self._slo_seconds = slo_seconds
        self._slo_violations = 0
        self._endpoints: dict[str, dict[str, int]] = {}
        self._waves_formed = 0
        self._wave_members = 0
        self._wave_capacity = 0
        self._wave_solo = 0

    def record_query(self, latency_seconds: float, cached: bool) -> None:
        """One answered query (hit or computed)."""
        with self._lock:
            self._latencies.append(latency_seconds)
            self._queries += 1
            if cached:
                self._hits += 1
            else:
                self._misses += 1
            if self._slo_seconds is not None and latency_seconds > self._slo_seconds:
                self._slo_violations += 1

    def record_endpoint(self, endpoint: str, error: bool = False) -> None:
        """One request handled on a named HTTP endpoint.

        Endpoint counters are the network tier's currency: they count
        *requests at the front door* (including health probes and schema
        rejections), not engine queries — a batch of 50 is one ``/batch``
        request here and 50 queries in the query counters.
        """
        with self._lock:
            counters = self._endpoints.setdefault(endpoint, {"requests": 0, "errors": 0})
            counters["requests"] += 1
            if error:
                counters["errors"] += 1

    def record_error(self) -> None:
        """One query that raised instead of answering."""
        with self._lock:
            self._errors += 1

    def record_busy(self, seconds: float) -> None:
        """Wall time of one serve call (single query or whole batch)."""
        with self._lock:
            self._busy_seconds += seconds

    def record_shard(self, shard: str, tasks: int = 1, errors: int = 0) -> None:
        """Account *tasks* executed (and *errors* raised) on one shard.

        These count backend *tasks*: each computed query is one task on
        its service's one handle, and cache hits contribute nowhere.
        """
        with self._lock:
            self._shard_tasks[shard] = self._shard_tasks.get(shard, 0) + tasks
            if errors:
                self._shard_errors[shard] = self._shard_errors.get(shard, 0) + errors

    def record_merge(self, winner: str) -> None:
        """Account one search outcome (``cell`` / ``crosscell`` /
        ``infeasible`` / ``error``)."""
        with self._lock:
            self._merge_wins[winner] = self._merge_wins.get(winner, 0) + 1

    def record_coalesced(self, count: int = 1) -> None:
        """Account *count* requests served off another's computation."""
        with self._lock:
            self._coalesced += count

    def record_timeout(self) -> None:
        """Account one request that stopped waiting for its answer."""
        with self._lock:
            self._timeouts += 1

    def record_shed(self) -> None:
        """Account one request refused by front-door admission control."""
        with self._lock:
            self._shed += 1

    @property
    def shed(self) -> int:
        """Requests refused by front-door admission control so far —
        the one counter ``/healthz`` polls, readable without building a
        whole snapshot."""
        with self._lock:
            return self._shed

    def record_queue_depth(self, depth: int) -> None:
        """Track the deepest submission queue seen so far."""
        with self._lock:
            if depth > self._queue_depth_peak:
                self._queue_depth_peak = depth

    def record_wave(self, members: int, capacity: int) -> None:
        """Account one wave dispatched with *members* queries aboard.

        *capacity* is the wave size the scheduler could have filled to;
        the ratio of the two sums is the fill rate the snapshot exposes.
        """
        with self._lock:
            self._waves_formed += 1
            self._wave_members += members
            self._wave_capacity += capacity

    def record_wave_solo(self, count: int = 1) -> None:
        """Account *count* queries dispatched per-query instead of waved
        (a lone query's wave of one and broken-wave resubmissions)."""
        with self._lock:
            self._wave_solo += count

    def snapshot(
        self,
        pinning: Mapping[str, int] | None = None,
        queue_depth_peak: int | None = None,
    ) -> StatsSnapshot:
        """Freeze the current aggregates (percentiles over the window).

        ``pinning`` and ``queue_depth_peak``, when given, are *live*
        backend readings folded into the returned snapshot only — the
        accumulator itself is not mutated, so :meth:`reset` semantics
        stay intact for the service's own counters.  (A backend's peak
        is backend-lifetime; resetting the service cannot rewind it.)
        """
        # Copy under the lock, sort outside it: ``record_query`` needs
        # the lock, and sorting a full window is the expensive part.
        with self._lock:
            latencies = list(self._latencies)
            counters = dict(
                queries=self._queries,
                errors=self._errors,
                cache_hits=self._hits,
                cache_misses=self._misses,
                busy_seconds=self._busy_seconds,
                slo_seconds=self._slo_seconds,
                slo_violations=self._slo_violations,
                endpoints={name: dict(c) for name, c in self._endpoints.items()},
                shard_tasks=dict(self._shard_tasks),
                shard_errors=dict(self._shard_errors),
                merge_wins=dict(self._merge_wins),
                coalesced=self._coalesced,
                timeouts=self._timeouts,
                shed=self._shed,
                queue_depth_peak=max(self._queue_depth_peak, queue_depth_peak or 0),
                pinning=dict(pinning) if pinning else {},
                waves=(
                    {
                        "formed": self._waves_formed,
                        "members": self._wave_members,
                        "capacity": self._wave_capacity,
                        "solo_fallbacks": self._wave_solo,
                        "mean_members": (
                            self._wave_members / self._waves_formed
                            if self._waves_formed
                            else 0.0
                        ),
                        "fill_rate": (
                            self._wave_members / self._wave_capacity
                            if self._wave_capacity
                            else 0.0
                        ),
                    }
                    if self._waves_formed or self._wave_solo
                    else {}
                ),
            )
        ordered = sorted(latencies)
        return StatsSnapshot(
            p50_latency_seconds=_percentile_of_sorted(ordered, 50.0),
            p95_latency_seconds=_percentile_of_sorted(ordered, 95.0),
            p99_latency_seconds=_percentile_of_sorted(ordered, 99.0),
            mean_latency_seconds=(sum(latencies) / len(latencies) if latencies else 0.0),
            **counters,
        )

    def reset(self) -> None:
        """Zero every counter and drop all samples."""
        with self._lock:
            self._latencies.clear()
            self._queries = 0
            self._errors = 0
            self._hits = 0
            self._misses = 0
            self._busy_seconds = 0.0
            self._shard_tasks.clear()
            self._shard_errors.clear()
            self._merge_wins.clear()
            self._coalesced = 0
            self._timeouts = 0
            self._shed = 0
            self._queue_depth_peak = 0
            self._slo_violations = 0
            self._endpoints.clear()
            self._waves_formed = 0
            self._wave_members = 0
            self._wave_capacity = 0
            self._wave_solo = 0
