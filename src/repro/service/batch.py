"""Batch building blocks: dedup, one wave dispatch path, slots in order.

The sync service's ``execute``
(:meth:`repro.service.base.RoutedService.execute`) is assembled from
these:

1. every slot is probed against the result cache (canonical keys, so a
   reordered keyword list still hits) and the remaining misses are
   deduplicated *within* the batch — two slots with the same canonical
   key share one computation (:func:`dedup_units`);
2. the unique computations go through :func:`dispatch_waves`,
   the one dispatch path: chunked into **waves** of up to
   :data:`DEFAULT_WAVE_SIZE` queries, each chunk shipped as one
   :class:`~repro.service.backends.WaveTask` through the caller's
   :class:`~repro.service.backends.ExecutionBackend` and addressed at a
   registered handle — one submission (on a process pool one pickle +
   IPC round trip) per wave, one candidate-set pass over the index per
   wave, then the members one after another through ``engine.run``.  A
   batch of one is a wave of one;
3. results land back in their slots (:class:`BatchReport`), so the
   report's order is the submission order on every backend.

A slot whose computation raises is reported through its
:class:`BatchItem.error`; nothing about it enters the cache and no other
slot is disturbed.  A wave whose *submission* breaks outright (worker
dead beyond retry, cancellation) is resubmitted member by member as
waves of one.
"""

from __future__ import annotations

from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.service.backends import ExecutionBackend, TaskOutcome, WaveTask
from repro.service.cache import UNCACHEABLE_PARAMS, ResultCache, canonical_cache_key

__all__ = [
    "BatchError",
    "BatchItem",
    "BatchReport",
    "DEFAULT_WAVE_SIZE",
    "dispatch_waves",
]

#: How many unique computations one wave carries.  Bigger waves
#: amortise one submission (one pickle + IPC round trip on a process
#: pool) over more queries but serialise more work behind it.  The sync
#: services read it at every dispatch; it is not a per-service option.
DEFAULT_WAVE_SIZE = 32


@dataclass
class BatchItem:
    """Outcome of one slot of a batch, in submission order."""

    index: int
    query: KORQuery
    result: KORResult | None = None
    error: Exception | None = None
    cached: bool = False
    latency_seconds: float = 0.0
    #: Key of the engine handle that answered; None for cache hits.
    shard: str | None = None

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
        preview = "; ".join(f"[{index}] {error}" for index, error in sorted(errors.items())[:3])
        super().__init__(f"{len(errors)} of {len(report.items)} batch queries failed: {preview}")
        self.report = report


@dataclass
class _Unit:
    """One unique computation, shared by every slot with its key."""

    query: KORQuery
    slots: list[int]
    key: Hashable | None = None


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
    shard: str,
    queries: Sequence[KORQuery],
    algorithm: str,
    params: dict,
    deadline: Deadline | None,
    wave_size: int,
    stats=None,
) -> list[TaskOutcome]:
    """Run every query on the handle *shard*; outcomes in query order.

    The sync service's one dispatch path.  The queries are chunked by
    *wave_size*, and each chunk ships as one
    :class:`~repro.service.backends.WaveTask` through
    ``backend.submit_wave`` — every wave is submitted before any is
    awaited, so process lanes run them side by side; a lone query is a
    wave of one.  Member-level failures arrive inside the wave's outcome
    list; a multi-member wave whose *submission* broke (future raised,
    was cancelled, or resolved to something that is not one outcome per
    member) is resubmitted as waves of one, and a wave of one whose
    submission broke reports that error as its member's outcome.

    ``stats``, when given, is a :class:`~repro.service.stats.ServiceStats`
    (or anything with ``record_wave`` / ``record_wave_solo``) receiving
    the occupancy counters: multi-member waves count as formed, lone
    queries and member-wise retries as solo.
    """
    chunks = [
        list(range(lo, min(lo + wave_size, len(queries))))
        for lo in range(0, len(queries), wave_size)
    ]
    if stats is not None:
        for chunk in chunks:
            if len(chunk) > 1:
                stats.record_wave(len(chunk), wave_size)
            else:
                stats.record_wave_solo()

    outcomes: list[TaskOutcome | None] = [None] * len(queries)

    def run(chunks: list[list[int]]) -> list[tuple[list[int], Exception]]:
        """Ship *chunks* as waves and file their outcomes; returns the
        chunks whose submission broke, each with the reason."""
        waves = [
            WaveTask.build(
                shard,
                [queries[position] for position in chunk],
                algorithm,
                params,
                deadline=deadline,
            )
            for chunk in chunks
        ]
        broken: list[tuple[list[int], Exception]] = []
        futures = [backend.submit_wave(wave) for wave in waves]
        for chunk, future in zip(chunks, futures):
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

