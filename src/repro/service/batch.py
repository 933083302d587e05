"""Batch execution: dedup, one wave dispatch path, slots in order.

``execute_batch`` is the engine room of ``QueryService.run_batch``:

1. every slot is probed against the result cache (canonical keys, so a
   reordered keyword list still hits);
2. the remaining misses are deduplicated *within* the batch — two slots
   with the same canonical key share one computation;
3. the unique computations go through :func:`dispatch_waves`, the one
   dispatch path both sync tiers share: chunked into **waves** of up to
   ``wave_size`` queries, each chunk shipped as one
   :class:`~repro.service.backends.WaveTask` through the caller's
   :class:`~repro.service.backends.ExecutionBackend` and addressed at the
   engine's registered handle — one submission (on a process pool one
   pickle + IPC round trip) per wave, one candidate-set pass over the
   index per wave, then the members one after another through
   ``engine.run``.  A batch of one is a wave of one; ``wave_size=1`` is
   per-query dispatch;
4. results land back in their slots, so the report's order is the
   submission order no matter how many workers raced.

A slot whose computation raises is reported through its
:class:`BatchItem.error`; nothing about it enters the cache and no other
slot is disturbed.  A wave whose *submission* breaks outright (worker
dead beyond retry, cancellation) is resubmitted member by member as
waves of one.  Cache writes carry the epoch captured before the batch
computed, so a cache invalidated mid-batch (engine swap) never receives
stale routes.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.service.backends import (
    EngineHandle,
    ExecutionBackend,
    TaskOutcome,
    WaveTask,
)
from repro.service.cache import UNCACHEABLE_PARAMS, ResultCache, canonical_cache_key

__all__ = [
    "BatchError",
    "BatchItem",
    "BatchReport",
    "DEFAULT_WAVE_SIZE",
    "MAX_WAVE_SIZE",
    "WaveSizeController",
    "dispatch_waves",
    "execute_batch",
]

#: How many unique computations one wave carries.  Bigger waves
#: amortise one submission (one pickle + IPC round trip on a process
#: pool) over more queries but serialise more work behind it.
DEFAULT_WAVE_SIZE = 32

#: Hard ceiling on adaptive growth: beyond this a wave serialises too
#: much work behind one submission slot.
MAX_WAVE_SIZE = 128

#: Mean out-degree at which the controller's grown size equals the base
#: (road networks sit around 2-4).
_REFERENCE_OUT_DEGREE = 4.0

#: Arrival rate (queries/second, the micro-batcher's EWMA) above which
#: the controller switches from the base to the grown wave size: under
#: load, larger waves amortise submission overhead that would otherwise
#: dominate; at low rates small waves keep per-wave latency low.
_GROWTH_QPS_THRESHOLD = 64.0


class WaveSizeController:
    """Adaptive wave sizing for :func:`dispatch_waves`.

    Replaces the fixed ``wave_size=32`` with a two-signal policy:

    * **width** — the graph's mean out-degree; the grown size scales the
      base by ``degree / reference_degree``, clamped to ``[base, cap]``.
      (The signal was chosen for the lockstep kernels' pooled edge
      blocks, which are gone; no benchmark workload feeds the controller
      an arrival rate yet, so the policy is kept as it was until one can
      judge it.)
    * **rate** — the arrival-rate EWMA the micro-batcher already tracks
      (:meth:`~repro.service.frontend.AsyncQueryService.tune` feeds it
      through ``tune_waves``).  Below the threshold the controller stays
      at the base size (latency-friendly); at or above it, waves grow.

    A controller built with ``fixed=True`` (the caller passed an explicit
    ``wave_size``) always returns the base — the knob stays honest.
    """

    def __init__(
        self,
        base: int = DEFAULT_WAVE_SIZE,
        *,
        fixed: bool = False,
        cap: int = MAX_WAVE_SIZE,
        reference_degree: float = _REFERENCE_OUT_DEGREE,
        rate_threshold: float = _GROWTH_QPS_THRESHOLD,
    ) -> None:
        if base < 1:
            raise QueryError(f"wave_size must be >= 1, got {base}")
        self.base = int(base)
        self.fixed = bool(fixed)
        self.cap = max(int(cap), self.base)
        self.reference_degree = float(reference_degree)
        self.rate_threshold = float(rate_threshold)
        self._grown = self.base
        self._arrival_qps = 0.0

    def retarget(self, graph) -> None:
        """Recompute the grown size from *graph*'s mean out-degree.

        Called at service construction and again whenever the engine is
        swapped or the world mutates (the graph's density may change).
        """
        if self.fixed:
            return
        degree = graph.num_edges / max(1, graph.num_nodes)
        scaled = int(self.base * degree / self.reference_degree)
        self._grown = max(self.base, min(self.cap, scaled))

    def observe(self, arrival_qps: float) -> None:
        """Feed the latest arrival-rate estimate (queries/second)."""
        self._arrival_qps = max(0.0, float(arrival_qps))

    @property
    def wave_size(self) -> int:
        """The wave size the next dispatch should use."""
        if self.fixed:
            return self.base
        return self._grown if self._arrival_qps >= self.rate_threshold else self.base

    def describe(self) -> dict:
        """Snapshot of the policy for ``scheduling_stats`` / ``/tune``."""
        return {
            "mode": "fixed" if self.fixed else "adaptive",
            "base": self.base,
            "grown": self._grown,
            "cap": self.cap,
            "rate_threshold": self.rate_threshold,
            "arrival_qps": self._arrival_qps,
            "wave_size": self.wave_size,
        }


@dataclass
class BatchItem:
    """Outcome of one slot of a batch, in submission order."""

    index: int
    query: KORQuery
    result: KORResult | None = None
    error: Exception | None = None
    cached: bool = False
    latency_seconds: float = 0.0
    #: Key of the engine handle the computation was addressed to (the
    #: winning shard on a sharded service); None for cache hits.
    shard: str | None = None
    #: Routing decision of a sharded service (``local`` /
    #: ``endpoints-span-cells`` / ...); None on the flat service and for
    #: cache hits, which never reach the router.
    plan: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the slot produced a result."""
        return self.error is None and self.result is not None


@dataclass
class BatchReport:
    """Everything a batch produced, slot by slot."""

    items: list[BatchItem]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        """Whether every slot succeeded."""
        return all(item.ok for item in self.items)

    @property
    def errors(self) -> dict[int, Exception]:
        """Slot index -> exception, for the slots that failed."""
        return {item.index: item.error for item in self.items if item.error is not None}

    def results(self) -> list[KORResult]:
        """The per-slot results in submission order.

        Raises :class:`BatchError` when any slot failed — use
        :attr:`items` to consume partial outcomes.
        """
        if not self.ok:
            raise BatchError(self)
        return [item.result for item in self.items]


class BatchError(QueryError):
    """Raised when :meth:`BatchReport.results` meets failed slots.

    Carries the full :attr:`report` so callers can still consume the
    slots that did succeed.
    """

    def __init__(self, report: BatchReport) -> None:
        errors = report.errors
        preview = "; ".join(
            f"[{index}] {error}" for index, error in sorted(errors.items())[:3]
        )
        super().__init__(
            f"{len(errors)} of {len(report.items)} batch queries failed: {preview}"
        )
        self.report = report


@dataclass
class _Unit:
    """One unique computation, shared by every slot with its key."""

    query: KORQuery
    slots: list[int]
    key: Hashable | None = None
    result: KORResult | None = None
    error: Exception | None = None
    latency_seconds: float = 0.0
    shard: str | None = None
    plan: str | None = None


def dedup_units(
    items: list[BatchItem],
    keys: list[Hashable | None],
    cache: ResultCache,
    cacheable: bool,
    epoch: int | None,
) -> list[_Unit]:
    """Probe the cache and fold the misses into per-key units.

    Cache hits are written straight into their items; the returned units
    cover exactly the slots that still need computing, deduplicated by
    canonical key within the batch.
    """
    units: list[_Unit] = []
    by_key: dict[Hashable, _Unit] = {}
    for item in items:
        key = keys[item.index]
        hit = cache.get(key, epoch=epoch) if cacheable else None
        if hit is not None:
            item.result = hit
            item.cached = True
            continue
        if cacheable and key in by_key:
            by_key[key].slots.append(item.index)
            continue
        unit = _Unit(query=item.query, slots=[item.index], key=key)
        units.append(unit)
        if cacheable:
            by_key[key] = unit
    return units


def batch_keys(
    queries: Sequence[KORQuery], algorithm: str, params: dict
) -> tuple[bool, list[Hashable | None]]:
    """Canonical keys for a batch (and whether it is cacheable at all)."""
    cacheable = not (UNCACHEABLE_PARAMS & params.keys())
    if cacheable:
        try:
            return True, [canonical_cache_key(q, algorithm, params) for q in queries]
        except QueryError:
            # Unhashable parameter values: serve the batch, skip the cache.
            pass
    return False, [None] * len(queries)


def dispatch_waves(
    backend: ExecutionBackend,
    attempts: Sequence[tuple[str, KORQuery]],
    algorithm: str,
    params: dict,
    deadline: Deadline | None,
    wave_size: int,
    workers: int | None = None,
    stats=None,
) -> list[TaskOutcome]:
    """Run every ``(shard key, query)`` attempt; outcomes in attempt order.

    The one dispatch path of both sync tiers.  Attempts are grouped by
    shard key, every group is chunked by *wave_size*, and each chunk
    ships as one :class:`~repro.service.backends.WaveTask` through
    ``backend.submit_waves`` (``workers`` narrows the submission window)
    — a lone attempt is a wave of one.  Member-level failures arrive
    inside the wave's outcome list; a multi-member wave whose
    *submission* broke (future raised, was cancelled, or resolved to
    something that is not one outcome per member) is resubmitted as
    waves of one, and a wave of one whose submission broke reports that
    error as its member's outcome.

    ``stats``, when given, is a :class:`~repro.service.stats.ServiceStats`
    (or anything with ``record_wave`` / ``record_wave_solo``) receiving
    the occupancy counters: multi-member waves count as formed, lone
    attempts and member-wise retries as solo.
    """
    groups: dict[str, list[int]] = {}
    for position, (shard, _query) in enumerate(attempts):
        groups.setdefault(shard, []).append(position)
    chunks = [
        positions[lo : lo + wave_size]
        for positions in groups.values()
        for lo in range(0, len(positions), wave_size)
    ]
    if stats is not None:
        for chunk in chunks:
            if len(chunk) > 1:
                stats.record_wave(len(chunk), wave_size)
            else:
                stats.record_wave_solo()

    outcomes: list[TaskOutcome | None] = [None] * len(attempts)

    def run(chunks: list[list[int]]) -> list[tuple[list[int], Exception]]:
        """Ship *chunks* as waves and file their outcomes; returns the
        chunks whose submission broke, each with the reason."""
        waves = [
            WaveTask.build(
                attempts[chunk[0]][0],
                [attempts[position][1] for position in chunk],
                algorithm,
                params,
                deadline=deadline,
            )
            for chunk in chunks
        ]
        broken: list[tuple[list[int], Exception]] = []
        for chunk, future in zip(chunks, backend.submit_waves(waves, workers=workers)):
            try:
                members = future.result()
                if not isinstance(members, list) or len(members) != len(chunk):
                    raise QueryError("backend returned a malformed wave result")
            except CancelledError:
                error = QueryError("task was cancelled before it started executing")
                broken.append((chunk, error))
            except Exception as error:  # noqa: BLE001 - broken wave, retried below
                broken.append((chunk, error))
            else:
                for position, outcome in zip(chunk, members):
                    outcomes[position] = outcome
        return broken

    failed: list[tuple[list[int], Exception]] = []
    singles: list[list[int]] = []
    for chunk, error in run(chunks):
        if len(chunk) == 1:
            failed.append((chunk, error))  # a wave of one: nothing left to split
        else:
            singles.extend([position] for position in chunk)
    if singles:
        if stats is not None:
            stats.record_wave_solo(len(singles))
        failed.extend(run(singles))
    for (position,), error in failed:
        outcomes[position] = TaskOutcome(error=error)
    return outcomes  # type: ignore[return-value]


def execute_batch(
    cache: ResultCache,
    queries: Sequence[KORQuery],
    algorithm: str = "bucketbound",
    workers: int | None = None,
    params: dict | None = None,
    *,
    backend: ExecutionBackend,
    handle: EngineHandle,
    deadline: Deadline | None = None,
    wave_size: int = DEFAULT_WAVE_SIZE,
    stats=None,
) -> BatchReport:
    """Run *queries* on the engine behind *handle*, with caching.

    ``backend`` is the execution strategy and ``handle`` the engine's
    :class:`EngineHandle`, registered with that backend — waves name
    the engine by the handle's key, in process and out.  ``deadline``,
    when given, travels out-of-band into every member's engine run (it
    never enters cache keys); a slot whose search outlives it fails with
    :class:`~repro.exceptions.DeadlineExceeded` without disturbing its
    neighbours, and nothing about it is cached.

    The batch's unique computations go through :func:`dispatch_waves` in
    waves of up to ``wave_size`` queries; ``workers`` narrows how many
    waves are in flight at once and ``stats`` receives the wave
    occupancy counters (see there).
    """
    params = dict(params or {})
    if "binding" in params or "candidates" in params:
        # A binding describes exactly one query and every wave resolves
        # its own candidate map, so a batch-wide value is always wrong.
        raise QueryError(
            "'binding'/'candidates' cannot be passed to a batch: they are "
            "per-query; use engine.run() directly to supply them"
        )
    if "deadline" in params:
        # Deadlines travel out-of-band (the ``deadline=`` argument) so
        # cache keys and wave grouping never see them.
        raise QueryError(
            "'deadline' is not a query parameter; pass deadline= to the "
            "service call instead"
        )
    if "trace" in params and not backend.in_process:
        # The worker would fill a pickled *copy* of the caller's trace
        # sink; refusing beats silently returning an empty trace.
        raise QueryError(
            "'trace' cannot cross the process boundary: run traced queries "
            "on an in-process backend (serial/thread) or engine.run()"
        )
    if wave_size < 1:
        raise QueryError(f"wave_size must be >= 1, got {wave_size}")
    begin = time.perf_counter()
    queries = list(queries)
    items = [BatchItem(index=i, query=query) for i, query in enumerate(queries)]

    cacheable, keys = batch_keys(queries, algorithm, params)
    epoch = cache.epoch if cacheable else None
    units = dedup_units(items, keys, cache, cacheable, epoch)

    if units:
        outcomes = dispatch_waves(
            backend,
            [(handle.key, unit.query) for unit in units],
            algorithm,
            params,
            deadline,
            wave_size,
            workers=workers,
            stats=stats,
        )
        for unit, outcome in zip(units, outcomes):
            if outcome.error is None and cacheable:
                cache.put(unit.key, outcome.result, epoch=epoch)
            for slot in unit.slots:
                items[slot].result = outcome.result
                items[slot].error = outcome.error
                items[slot].latency_seconds = outcome.latency_seconds
                items[slot].shard = handle.key

    return BatchReport(items=items, wall_seconds=time.perf_counter() - begin)
