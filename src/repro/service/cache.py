"""Canonicalizing LRU result cache for the serving layer.

The cache key normalises everything about a query that cannot change its
answer: keyword **order** and **duplicates** (a KOR query's keyword set
is a set, Definition 4 — bit positions shift but the optimal route does
not), while keeping everything that can: endpoints, budget, algorithm
and algorithm parameters.  Two queries with the same canonical key are
answered by the same :class:`repro.core.results.KORResult` object; the
cached result's ``query`` attribute is the query that first computed it.

Two orthogonal bounds govern eviction:

* ``capacity`` — maximum entry count (LRU eviction beyond it);
* ``max_route_nodes`` — optional budget on the *total route size* held
  (results store full routes, so a thousand 3-node answers and a dozen
  thousand-node answers are very different memory stories).  Inserting
  past the budget evicts LRU entries until the total fits again; a
  single result bigger than the whole budget is never stored.

The cache also carries an **epoch**.  Keys only describe the query —
not the graph it was answered on — so a service whose engine is rebuilt
calls :meth:`ResultCache.invalidate`, which bumps the epoch and drops
every entry.  Readers and writers capture the epoch when a computation
*starts* and pass it back to :meth:`get`/:meth:`put`; a write that began
against the old engine is silently discarded instead of poisoning the
new epoch with a stale route.

The store is a plain ``OrderedDict`` LRU guarded by a lock so batch
workers can probe it concurrently.

The cache also hosts the serving layer's **single-flight** table
(:meth:`ResultCache.get_or_compute`): concurrent identical misses — same
canonical key, different threads — fold into *one* computation, with the
waiters handed the leader's result (or its exception) instead of
recomputing.  The async front-end reuses the very same key for its own
awaiter coalescing, so "one key, at most one computation in flight" is
one invariant across the whole stack.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

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


def _route_size(result: KORResult) -> int:
    """Stored route size of one result (0 when no route was produced).

    Tolerates arbitrary stored values (tests stub results with plain
    objects): anything without a route costs 0 nodes.
    """
    route = getattr(result, "route", None)
    nodes = getattr(route, "nodes", None)
    return len(nodes) if nodes is not None else 0


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` (monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Results refused because one route exceeded the whole size budget.
    oversize_rejections: int = 0
    #: Writes dropped because the cache epoch moved while they computed.
    stale_writes: int = 0
    #: Times :meth:`ResultCache.invalidate` wiped the store.
    invalidations: int = 0
    #: ``get_or_compute`` callers served off another caller's in-flight
    #: computation instead of computing themselves (single-flight).
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        """Total probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per probe, 0.0 when never probed."""
        return self.hits / self.lookups if self.lookups else 0.0


class _InFlight:
    """One computation other callers of the same key can wait on."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: KORResult | None = None
        self.error: BaseException | None = None


class ResultCache:
    """Thread-safe LRU mapping canonical keys to :class:`KORResult`.

    ``capacity`` bounds the entry count; ``max_route_nodes`` (optional)
    bounds the summed ``len(route.nodes)`` of stored results.  Inserting
    beyond either bound evicts the least recently *used* entries
    (lookups refresh recency).  A capacity of 0 disables storage
    entirely while keeping the stats flowing.
    """

    def __init__(self, capacity: int = 1024, max_route_nodes: int | None = None) -> None:
        if capacity < 0:
            raise QueryError(f"cache capacity must be >= 0, got {capacity}")
        if max_route_nodes is not None and max_route_nodes < 0:
            raise QueryError(
                f"max_route_nodes must be >= 0 or None, got {max_route_nodes}"
            )
        self._capacity = capacity
        self._max_route_nodes = max_route_nodes
        self._entries: OrderedDict[Hashable, KORResult] = OrderedDict()
        self._route_nodes = 0
        self._epoch = 0
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._in_flight: dict[Hashable, _InFlight] = {}

    @property
    def capacity(self) -> int:
        """Maximum number of stored results."""
        return self._capacity

    @property
    def max_route_nodes(self) -> int | None:
        """Total stored-route-size budget (None = unbounded)."""
        return self._max_route_nodes

    @property
    def total_route_nodes(self) -> int:
        """Summed route size of every stored result."""
        with self._lock:
            return self._route_nodes

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

    def hit(self, key: Hashable) -> KORResult | None:
        """The current epoch's result under *key*, counted only if found.

        For a caller that falls through to :meth:`get` on a miss (the
        async front-end ahead of ``execute``): that later probe counts
        the miss, so a request still moves ``hits + misses`` by one.
        Shares :meth:`invalidate`'s lock: once that has returned, no
        entry of the retired epoch is handed out.
        """
        with self._lock:
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
        size = _route_size(result)
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                self._stats.stale_writes += 1
                return
            if self._max_route_nodes is not None and size > self._max_route_nodes:
                # Bigger than the whole budget: storing it would evict
                # everything and still not fit.
                self._stats.oversize_rejections += 1
                return
            previous = self._entries.get(key)
            if previous is not None:
                self._route_nodes -= _route_size(previous)
                self._entries.move_to_end(key)
            self._entries[key] = result
            self._route_nodes += size
            self._stats.insertions += 1
            while len(self._entries) > self._capacity or (
                self._max_route_nodes is not None
                and self._route_nodes > self._max_route_nodes
            ):
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._route_nodes -= _route_size(evicted)
                self._stats.evictions += 1

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], KORResult],
        epoch: int | None = None,
        store: bool = True,
    ) -> tuple[KORResult, str]:
        """Serve *key* with single-flight miss protection.

        Probes the cache first; on a miss, exactly one caller per key
        runs *compute* while concurrent callers of the same key block on
        its outcome.  Returns ``(result, how)`` with ``how`` one of
        ``"hit"`` (served from the store), ``"computed"`` (this caller
        was the leader) or ``"coalesced"`` (another caller's computation
        answered).  A leader whose *compute* raises propagates the
        exception to every waiter — and nothing enters the cache.

        ``store=False`` skips the leader's write-back for callers whose
        *compute* already stores the result itself (the sharded service
        routes through its batch path, which caches internally).

        ``epoch`` follows the :meth:`get`/:meth:`put` contract: captured
        before computing, it turns writes that raced an
        :meth:`invalidate` into silent drops.  The flight table itself
        is **epoch-scoped**: flights are registered under the *caller's*
        captured epoch (falling back to the current epoch when none is
        given), so a caller arriving after an :meth:`invalidate` never
        coalesces onto a computation that started against the retired
        engine — it starts a fresh one.  Keying by the caller's epoch
        rather than the table's current epoch matters when the capture
        itself raced the invalidate: a leader that captured the retired
        epoch computes against the retired engine, and its flight must
        not collect waiters who captured the new one.
        """
        while True:
            hit = self.get(key, epoch=epoch)
            if hit is not None:
                return hit, "hit"
            with self._lock:
                flight_key = (key, self._epoch if epoch is None else epoch)
                flight = self._in_flight.get(flight_key)
                if flight is None:
                    flight = _InFlight()
                    self._in_flight[flight_key] = flight
                    leader = True
                else:
                    leader = False
                    self._stats.coalesced += 1
            if leader:
                break
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            if flight.result is not None:
                return flight.result, "coalesced"
            # The leader was abandoned (its wait raised through a level
            # that never set result/error); retry from the cache probe.
        try:
            result = compute()
        except BaseException as error:
            flight.error = error
            raise
        else:
            flight.result = result
            if store:
                # Write back under the flight's epoch, never a bare None:
                # an ``epoch=None`` put bypasses the epoch guard, so a
                # leader resolving after a mid-flight invalidate would
                # seed the *new* epoch's cache with a result computed
                # against the retired engine.
                self.put(key, result, epoch=flight_key[1])
            return result, "computed"
        finally:
            with self._lock:
                self._in_flight.pop(flight_key, None)
            flight.done.set()

    def invalidate(self) -> int:
        """Drop every entry and bump the epoch (returns the new epoch).

        Call this whenever the engine behind the cached results is
        rebuilt — entries keyed only by query would otherwise keep
        serving routes of the old graph.  In-flight writes that captured
        the old epoch are discarded on arrival (see :meth:`put`).
        """
        with self._lock:
            self._entries.clear()
            self._route_nodes = 0
            self._epoch += 1
            self._stats.invalidations += 1
            return self._epoch

    def clear(self) -> None:
        """Drop every entry (counters and epoch are kept)."""
        with self._lock:
            self._entries.clear()
            self._route_nodes = 0

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
