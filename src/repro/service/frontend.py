"""``AsyncQueryService`` — the asyncio front door over the serving tier.

The sync services (:class:`~repro.service.service.QueryService`,
:class:`~repro.service.sharding.ShardedQueryService`) are batch-shaped:
one caller hands over a list, blocks, and gets a list back.  A server
talks to *many* callers at once, each holding one query — so this module
adds the request-shaped tier:

submit → coalesce → micro-batch → scatter
-----------------------------------------
``await service.submit(query)`` first asks the wrapped service for a
cached answer under the request's canonical key and, on a hit, returns
it from the loop thread without allocating anything (``loop_hits``).  A
miss parks the request in three stages:

1. **coalesce** — requests are keyed by the sync cache's canonical key
   (:func:`repro.service.cache.canonical_cache_key`); a request whose
   key is already in flight joins that flight instead of queueing a
   duplicate (single-flight, counted in ``snapshot().coalesced``) — the
   stack's one coalescer: the sync services run every call they get.  A
   flight is joined only under the epoch it was created in: after an
   update, a repeat request starts a flight of its own;
2. **micro-batch** — new flights collect for one batching window
   (``window_seconds``; 0 = the current event-loop tick) or until
   ``max_batch`` of them are waiting, whichever first;
3. **scatter** — the collected wave becomes *one*
   ``service.execute(...)`` call on a worker thread, which reuses
   everything the sync tier already has: result cache, in-batch dedup,
   shared candidate sets, and its backend (waves inline on that thread,
   or on the least-loaded process lanes).  Because flights are grouped
   by ``(algorithm, params)``, a micro-batch is exactly the shape the
   sync tier's waves want (:class:`~repro.service.backends.WaveTask`):
   the flat ``QueryService`` ships the whole micro-batch in
   ``DEFAULT_WAVE_SIZE``-query submissions.  The wave's report is
   scattered back to each flight's awaiters.

Per-request **timeouts and cancellation** detach the awaiter
immediately; when the *last* awaiter of a flight detaches before its
wave dispatched, the flight is dropped and its work is never
submitted — cancellation propagates all the way down to the backend.
Each flight also carries a cooperative
:class:`~repro.core.deadline.Deadline` derived from the loosest awaiter
timeout (an awaiter without one unbounds the flight): the wave forwards
it into the engine's search loop, so a wave whose every awaiter set a
timeout genuinely *stops computing* once the loosest one expires
(:class:`~repro.exceptions.DeadlineExceeded`) instead of burning a
worker on an answer nobody will read.  An unbounded wave still
completes in the background (its results land in the sync cache; they
were correct when computed), but nothing is ever cached *because* of a
timeout and nothing about a timeout poisons the stats.

Results are byte-identical to the wrapped sync service's — the frontend
adds scheduling, never semantics (backed by the asyncio differential
suite in ``tests/service/test_frontend.py``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Hashable, Iterable, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError, ServiceClosed
from repro.service.base import RoutedService
from repro.service.batch import batch_keys
from repro.service.stats import ServiceStats, StatsSnapshot

__all__ = ["AsyncQueryService"]


@dataclass
class _Flight:
    """One unique in-flight query and everyone awaiting it."""

    query: KORQuery
    algorithm: str
    params: tuple[tuple[str, object], ...]
    key: Hashable | None
    future: asyncio.Future
    #: The loosest deadline any awaiter asked for (None = unbounded; a
    #: joiner without a timeout relaxes the whole flight, because the
    #: shared computation must satisfy its most patient awaiter).
    deadline: Deadline | None = None
    #: The wrapped service's epoch when the flight was created: a
    #: request arriving under a newer one must not join it.
    epoch: int = 0
    waiters: int = 0
    dispatched: bool = False
    abandoned: bool = False

    @property
    def wave_key(self) -> tuple:
        """Flights sharing this key can ride one ``execute`` call.

        Uncoalescable flights (no canonical key: uncacheable or
        unhashable params, e.g. a caller-owned ``trace`` sink) ride
        solo — their params are caller state a wave must not share.
        """
        if self.key is None:
            return ("solo", id(self))
        return (self.algorithm, self.params)


@dataclass
class _WaveStats:
    """Counters the front-end keeps about its own scheduling."""

    requests: int = 0
    #: Requests answered from the result cache before a flight existed.
    loop_hits: int = 0
    flights: int = 0
    waves: int = 0
    abandoned_flights: int = 0


class AsyncQueryService:
    """Awaitable facade over a sync ``QueryService``-shaped service.

    Parameters
    ----------
    service:
        The sync :class:`~repro.service.base.RoutedService` to serve from
        (a :class:`~repro.service.service.QueryService` or a
        :class:`~repro.service.sharding.ShardedQueryService`).
        The frontend *wraps* it; it does not own the underlying
        backend's lifecycle unless :meth:`close` is asked to.
    window_seconds:
        Micro-batching window.  ``0.0`` (default) flushes on the next
        event-loop tick, which already aggregates every awaiter that
        arrived in the same scheduling burst; a positive value trades
        that much latency for bigger waves.
    max_batch:
        Flush early once this many distinct flights are queued.
    close_service:
        Whether :meth:`close` also closes the wrapped sync service
        (only meaningful for services owning their backend).
    slo_seconds:
        Optional per-request latency SLO; requests slower than this are
        counted in ``snapshot().slo_violations`` (see
        :class:`~repro.service.stats.ServiceStats`).

    A negative or non-finite ``window_seconds`` and a non-positive or
    non-finite ``slo_seconds`` raise :class:`~repro.exceptions.QueryError`:
    ``/stats`` reports both, and JSON has no ``NaN`` or ``Infinity``.
    """

    def __init__(
        self,
        service: RoutedService,
        window_seconds: float = 0.0,
        max_batch: int = 64,
        close_service: bool = False,
        slo_seconds: float | None = None,
    ) -> None:
        if not (math.isfinite(window_seconds) and window_seconds >= 0.0):
            raise QueryError(f"window_seconds must be a finite number >= 0, got {window_seconds}")
        if max_batch < 1:
            raise QueryError(f"max_batch must be >= 1, got {max_batch}")
        if slo_seconds is not None and not (math.isfinite(slo_seconds) and slo_seconds > 0.0):
            raise QueryError(f"slo_seconds must be a finite number > 0 or None, got {slo_seconds}")
        self._service = service
        self._window = window_seconds
        self._max_batch = max_batch
        self._close_service = close_service
        self._pending: dict[Hashable, _Flight] = {}
        self._queue: list[_Flight] = []
        self._flush_handle: asyncio.TimerHandle | asyncio.Handle | None = None
        self._waves: set[asyncio.Task] = set()
        self._stats = ServiceStats(slo_seconds=slo_seconds)
        self._wave_stats = _WaveStats()
        self._closed = False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def service(self) -> RoutedService:
        """The wrapped sync service."""
        return self._service

    @property
    def stats(self) -> ServiceStats:
        """Front-end metrics (latency as awaiters saw it, coalescing,
        timeouts, queue depth).  The wrapped service keeps its own."""
        return self._stats

    @property
    def epoch(self) -> int:
        """The wrapped service's graph epoch."""
        return self._service.epoch

    async def apply_update(self, ops: Sequence) -> int:
        """Apply graph mutations through the wrapped sync service.

        Runs the blocking repair on the event loop's default executor,
        where the waves run too, so the event loop keeps serving while
        tables recompute.  In-flight waves finish on the old epoch (the
        sync service's epoch fence); waves dispatched after this returns
        see the new state.  Returns the new epoch.
        """
        if self._closed:
            raise ServiceClosed("AsyncQueryService is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, partial(self._service.apply_ops, list(ops)))

    def snapshot(self) -> StatsSnapshot:
        """Frozen front-end metrics (see :attr:`stats`)."""
        return self._stats.snapshot()

    def scheduling_stats(self) -> dict:
        """Wave-level accounting: requests vs loop hits vs flights vs
        execute waves (flights and waves count cache misses only), plus
        the batching window."""
        stats = asdict(self._wave_stats)
        stats["window_seconds"] = self._window
        return stats

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def query(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        algorithm: str = "bucketbound",
        timeout: float | None = None,
        **params,
    ) -> KORResult:
        """Answer one KOR query (mirrors the sync ``service.query``)."""
        return await self.submit(
            KORQuery(source, target, tuple(keywords), budget_limit),
            algorithm=algorithm,
            timeout=timeout,
            **params,
        )

    async def submit(
        self,
        query: KORQuery,
        algorithm: str = "bucketbound",
        timeout: float | None = None,
        **params,
    ) -> KORResult:
        """Answer *query*, awaiting the micro-batched serving pipeline.

        A cached answer returns at once, without suspending.  Otherwise
        identical concurrent submissions share one flight and distinct
        concurrent submissions share one ``execute`` wave.  ``timeout``
        (seconds) raises :class:`asyncio.TimeoutError` for *this*
        awaiter only — see the module docstring for what the shared
        flight does afterwards.  The timeout also becomes the flight's
        cooperative :class:`~repro.core.deadline.Deadline`, propagated
        down to the engine's search loop so an expired wave actually
        stops computing instead of burning a worker (the search then
        fails with :class:`~repro.exceptions.DeadlineExceeded`).  A
        flight shared by awaiters with different timeouts carries the
        loosest one; any awaiter *without* a timeout unbounds it.

        Submitting to a closed service raises
        :class:`~repro.exceptions.ServiceClosed`.
        """
        if self._closed:
            raise ServiceClosed("AsyncQueryService is closed")
        if "deadline" in params:
            # Deadlines travel out-of-band (derived from ``timeout``) so
            # cache keys and wave grouping never see them.
            raise QueryError(
                "'deadline' is not a query parameter; pass timeout= to the "
                "front end instead"
            )
        begin = time.perf_counter()
        self._wave_stats.requests += 1
        # batch_keys owns the cacheability rules (uncacheable params,
        # unhashable values): the coalescing key IS the sync cache key.
        _cacheable, (key,) = batch_keys([query], algorithm, params)
        if key is not None:
            hit = self._service.serve_cached(key)
            if hit is not None:
                # No flight, future, flush handle or executor hop exists
                # yet — and no await, so ``timeout`` has nothing to bound.
                self._wave_stats.loop_hits += 1
                elapsed = time.perf_counter() - begin
                self._stats.record_query(elapsed, cached=True)
                self._stats.record_busy(elapsed)
                return hit
        deadline = Deadline.after(timeout) if timeout is not None else None
        flight, joined = self._enlist(query, algorithm, params, key, deadline)
        flight.waiters += 1
        self._stats.record_queue_depth(len(self._pending) + len(self._waves))
        try:
            if timeout is None:
                result = await asyncio.shield(flight.future)
            else:
                result = await asyncio.wait_for(asyncio.shield(flight.future), timeout)
        except asyncio.TimeoutError as error:
            future = flight.future
            if future.done() and not future.cancelled() and future.exception() is error:
                # The *wave* failed with a TimeoutError (asyncio's alias
                # of the builtin on 3.11+): that is a serving error the
                # flight delivered, not this awaiter's clock expiring.
                flight.waiters -= 1
                self._stats.record_error()
                self._stats.record_busy(time.perf_counter() - begin)
                raise
            self._detach(flight)
            self._stats.record_timeout()
            self._stats.record_busy(time.perf_counter() - begin)
            raise
        except asyncio.CancelledError:
            self._detach(flight)
            raise
        except Exception:
            elapsed = time.perf_counter() - begin
            flight.waiters -= 1
            self._stats.record_error()
            self._stats.record_busy(elapsed)
            raise
        elapsed = time.perf_counter() - begin
        flight.waiters -= 1
        # "cached" at the front-end means "started no flight of its
        # own" (a loop hit above, a joiner here); the sync tier's own
        # hit rate lives in the wrapped service's snapshot.
        self._stats.record_query(elapsed, cached=joined)
        self._stats.record_busy(elapsed)
        return result

    async def run_batch(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        timeout: float | None = None,
        **params,
    ) -> list[KORResult]:
        """Await every query concurrently (one coalesced wave or few).

        Unlike the sync ``run_batch`` this is just ``asyncio.gather``
        over :meth:`submit` — duplicates coalesce, the batch rides the
        micro-batching window, and one failing query raises its own
        exception out of the gather.
        """
        return list(
            await asyncio.gather(
                *(
                    self.submit(query, algorithm=algorithm, timeout=timeout, **params)
                    for query in queries
                )
            )
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enlist(
        self,
        query: KORQuery,
        algorithm: str,
        params: dict,
        key: Hashable | None,
        deadline: Deadline | None,
    ) -> tuple[_Flight, bool]:
        """The live flight for this request (joined=True), or a new one."""
        epoch = self.epoch
        if key is not None:
            live = self._pending.get(key)
            if live is not None and not live.future.done() and live.epoch == epoch:
                # Joining extends (or unbounds) the shared deadline —
                # the flight must outlive its most patient awaiter.
                live.deadline = Deadline.latest(live.deadline, deadline)
                self._stats.record_coalesced()
                return live, True
        loop = asyncio.get_running_loop()
        flight = _Flight(
            query=query,
            algorithm=algorithm,
            params=tuple(sorted(params.items())),
            key=key,
            future=loop.create_future(),
            deadline=deadline,
            epoch=epoch,
        )
        self._wave_stats.flights += 1
        if key is not None:
            self._pending[key] = flight
        self._queue.append(flight)
        self._arm_flush(loop)
        return flight, False

    def _arm_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if len(self._queue) >= self._max_batch:
            # Early flush; _flush itself disarms the window timer that
            # may be in flight for these same flights, so the timer can
            # never fire a second, empty (or worse: refilled) wave.
            self._flush()
            return
        if self._flush_handle is None:
            if self._window > 0.0:
                self._flush_handle = loop.call_later(self._window, self._flush)
            else:
                self._flush_handle = loop.call_soon(self._flush)

    def _detach(self, flight: _Flight) -> None:
        """One awaiter gave up; drop the flight if it was the last."""
        flight.waiters -= 1
        if flight.waiters <= 0 and not flight.dispatched and not flight.abandoned:
            flight.abandoned = True
            self._wave_stats.abandoned_flights += 1
            if flight.key is not None and self._pending.get(flight.key) is flight:
                del self._pending[flight.key]
            if not flight.future.done():
                flight.future.cancel()

    def _flush(self) -> None:
        """Dispatch everything queued as per-(algorithm, params) waves.

        Disarming the timer handle is done *here*, not at the call
        sites, so the invariant is local: however a flush is triggered
        (window expiry, max-batch overflow during ``_enlist``), any
        armed timer for the queue being drained is cancelled and the
        handle slot is clear for the next arrival to arm afresh.
        Cancelling the handle is safe even when this call *is* that
        timer firing — cancel-after-fire is a no-op.
        """
        if self._flush_handle is not None:
            self._flush_handle.cancel()
        self._flush_handle = None
        queued, self._queue = self._queue, []
        live = [flight for flight in queued if not flight.abandoned]
        if not live:
            return
        loop = asyncio.get_running_loop()
        waves: dict[tuple, list[_Flight]] = {}
        for flight in live:
            flight.dispatched = True
            waves.setdefault(flight.wave_key, []).append(flight)
        for flights in waves.values():
            self._wave_stats.waves += 1
            task = loop.create_task(self._run_wave(flights))
            self._waves.add(task)
            task.add_done_callback(self._waves.discard)

    async def _run_wave(self, flights: list[_Flight]) -> None:
        """One blocking ``execute`` call, scattered back to its flights."""
        algorithm = flights[0].algorithm
        params = dict(flights[0].params)
        # The wave computes once for every flight in it, so it runs on
        # the *loosest* flight deadline: any unbounded flight unbounds
        # the wave.  Tighter awaiters still time out individually.
        deadline = flights[0].deadline
        for flight in flights[1:]:
            deadline = Deadline.latest(deadline, flight.deadline)
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None,
                partial(
                    self._service.execute,
                    [flight.query for flight in flights],
                    algorithm=algorithm,
                    deadline=deadline,
                    **params,
                ),
            )
        except Exception as error:  # noqa: BLE001 - delivered per flight
            for flight in flights:
                self._deliver(flight, None, error)
        else:
            for flight, item in zip(flights, report.items):
                self._deliver(flight, item.result, item.error)
        finally:
            for flight in flights:
                if flight.key is not None and self._pending.get(flight.key) is flight:
                    del self._pending[flight.key]

    def _deliver(self, flight: _Flight, result: KORResult | None, error: Exception | None) -> None:
        future = flight.future
        if future.done():
            return
        if flight.waiters <= 0:
            # Every awaiter timed out after dispatch: cancelling beats
            # parking an exception nobody will ever retrieve.
            future.cancel()
        elif error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop admitting, flush nothing new, and drain in-flight waves.

        Queued-but-undispatched flights fail with
        :class:`~repro.exceptions.ServiceClosed` — a *distinct* error,
        not a bare cancellation, so their awaiters can tell "the service
        shut down under me" (retry elsewhere) from "my own caller gave
        up" (don't).  Waves already running are awaited so the wrapped
        service is quiescent on return.  With ``close_service=True`` the
        wrapped sync service's ``close()`` is called too.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        queued, self._queue = self._queue, []
        for flight in queued:
            if flight.key is not None and self._pending.get(flight.key) is flight:
                del self._pending[flight.key]
            if not flight.future.done():
                flight.future.set_exception(
                    ServiceClosed("AsyncQueryService closed before this query dispatched")
                )
        if self._waves:
            await asyncio.gather(*tuple(self._waves), return_exceptions=True)
        if self._close_service:
            # close() waits for an update in flight: keep the loop free.
            await asyncio.get_running_loop().run_in_executor(None, self._service.close)

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
