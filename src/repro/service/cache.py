"""Canonicalizing LRU result cache for the serving layer.

The cache key normalises everything about a query that cannot change its
answer: keyword **order** and **duplicates** (a KOR query's keyword set
is a set, Definition 4 — bit positions shift but the optimal route does
not), while keeping everything that can: endpoints, budget, algorithm
and algorithm parameters.  Two queries with the same canonical key are
answered by the same :class:`repro.core.results.KORResult` object; the
cached result's ``query`` attribute is the query that first computed it.

One bound governs eviction: ``capacity``, the maximum entry count (LRU
eviction beyond it).

The cache also carries an **epoch**.  Keys only describe the query —
not the graph it was answered on — so a service whose engine is rebuilt
calls :meth:`ResultCache.invalidate`, which bumps the epoch and drops
every entry.  Readers and writers capture the epoch when a computation
*starts* and pass it back to :meth:`get`/:meth:`put`; a write that began
against the old engine is silently discarded instead of poisoning the
new epoch with a stale route.

The store is a plain ``OrderedDict`` LRU guarded by a lock so
concurrent ``execute`` calls can probe it.  Concurrent identical misses
are coalesced one level up, by the async front end's flight table, which
is keyed by the very same canonical key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError

__all__ = ["CacheStats", "ResultCache", "canonical_cache_key", "UNCACHEABLE_PARAMS"]

#: Parameters whose presence makes a single-query call uncacheable:
#: ``trace`` mutates a caller-owned sink (replaying a cached result would
#: silently skip it) and ``binding``/``candidates`` are caller-supplied
#: state the key cannot describe.  The batch executor rejects the latter
#: two outright — they are per-query by nature.
UNCACHEABLE_PARAMS = frozenset({"trace", "binding", "candidates"})


def canonical_cache_key(
    query: KORQuery,
    algorithm: str = "bucketbound",
    params: Mapping[str, object] | None = None,
) -> Hashable:
    """The cache key of (*query*, *algorithm*, *params*).

    Keywords are deduplicated and sorted, so any ordering of the same
    keyword multiset maps to one key.  Endpoints, budget, algorithm name
    and every parameter value are kept verbatim — distinct budgets,
    sources, targets or epsilons can never collide (the key is a tuple of
    the actual values, not a hash digest).
    """
    if params:
        unhashable = [name for name in params if not _hashable(params[name])]
        if unhashable:
            raise QueryError(
                f"parameters {sorted(unhashable)} are not hashable and cannot "
                "form a cache key; pass them via an uncached engine.run()"
            )
    return (
        int(query.source),
        int(query.target),
        tuple(sorted(set(query.keywords))),
        float(query.budget_limit),
        str(algorithm),
        tuple(sorted(params.items())) if params else (),
    )


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` (monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Writes dropped because the cache epoch moved while they computed.
    stale_writes: int = 0
    #: Times :meth:`ResultCache.invalidate` wiped the store.
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per probe, 0.0 when never probed."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Thread-safe LRU mapping canonical keys to :class:`KORResult`.

    ``capacity`` bounds the entry count: inserting beyond it evicts the
    least recently *used* entries (lookups refresh recency).  A capacity
    of 0 disables storage entirely while keeping the stats flowing.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise QueryError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, KORResult] = OrderedDict()
        self._epoch = 0
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of stored results."""
        return self._capacity

    @property
    def epoch(self) -> int:
        """Current validity epoch; bumped by :meth:`invalidate`.

        Capture it before starting a computation and pass it back to
        :meth:`put` so results of a superseded engine are dropped.
        """
        with self._lock:
            return self._epoch

    @property
    def stats(self) -> CacheStats:
        """Live hit/miss/eviction counters."""
        return self._stats

    def get(self, key: Hashable, epoch: int | None = None) -> KORResult | None:
        """The cached result under *key*, refreshing its recency.

        ``epoch``, when given, must match the current epoch — a probe
        carrying a superseded epoch is a guaranteed miss.
        """
        with self._lock:
            stale = epoch is not None and epoch != self._epoch
            result = None if stale else self._found(key)
            if result is None:
                self._stats.misses += 1
            return result

    def hit(self, key: Hashable, epoch: int | None = None) -> KORResult | None:
        """The current epoch's result under *key*, counted only if found.

        For a caller that falls through to :meth:`get` on a miss (the
        async front-end ahead of ``execute``): that later probe counts
        the miss, so a request still moves ``hits + misses`` by one.  ``epoch`` follows
        the :meth:`get` contract.  Shares :meth:`invalidate`'s lock: once
        that has returned, no entry of the retired epoch is handed out.
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return None
            return self._found(key)

    def _found(self, key: Hashable) -> KORResult | None:
        """The entry under *key*, refreshed and counted as a hit (caller
        holds the lock); None, uncounted, when there is none."""
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
            self._stats.hits += 1
        return result

    def put(self, key: Hashable, result: KORResult, epoch: int | None = None) -> None:
        """Store *result* under *key*, evicting LRU entries while full.

        ``epoch``, when given, is the epoch captured before the result
        was computed; if :meth:`invalidate` ran in between, the write is
        dropped (the result describes an engine that no longer serves).
        """
        if self._capacity == 0:
            return
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                self._stats.stale_writes += 1
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            self._stats.insertions += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry and bump the epoch (returns the new epoch).

        Call this whenever the engine behind the cached results is
        rebuilt — entries keyed only by query would otherwise keep
        serving routes of the old graph.  In-flight writes that captured
        the old epoch are discarded on arrival (see :meth:`put`).
        """
        with self._lock:
            self._entries.clear()
            self._epoch += 1
            self._stats.invalidations += 1
            return self._epoch

    def clear(self) -> None:
        """Drop every entry (counters and epoch are kept)."""
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
