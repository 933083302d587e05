"""Pluggable execution backends for the serving layer.

The serving layer describes compute work in exactly one currency: the
**wave** (:class:`WaveTask`) — one or more same-``(algorithm, params)``
queries addressed at the engine registered under one shard key, shipped
as *one* submission and executed member after member through
:func:`repro.core.kernels.run_wave` on that engine.  A single query is a
wave of one.  What a wave buys is transport: one admission slot, one
future and — on a process pool — one pickle + IPC round trip for all its
members, plus one shared candidate-set pass over the index.

The primitive every backend implements is **futures-based submission**:
:meth:`ExecutionBackend.submit_wave` hands one wave to the backend and
immediately returns a ``concurrent.futures.Future`` resolving to one
:class:`TaskOutcome` per member, in order.  A member's failure stays in
its own outcome; the future itself only raises for submission-level
faults (cancellation, a worker that died beyond retry), which the batch
executor answers by resubmitting the members as waves of one
(:func:`repro.service.batch.dispatch_waves`).
:meth:`ExecutionBackend.submit_waves` is the windowed form — submit a
list, at most ``workers`` unresolved at a time — and
:meth:`ExecutionBackend.submit_call` is the in-process closure primitive
the serial and thread backends run their waves on.

Admission is bounded: construct any backend with ``max_in_flight=N`` and
the (N+1)-th concurrent submission blocks until a slot frees.  The
current depth, high-water mark and number of blocked admissions are
exposed (:attr:`~ExecutionBackend.in_flight`,
:attr:`~ExecutionBackend.peak_in_flight`,
:attr:`~ExecutionBackend.admission_waits`) and surface in service
snapshots as ``queue_depth_peak``.

:class:`SerialBackend` and :class:`ThreadBackend` execute waves in the
calling process, on the live engines behind the registered handles.
:class:`ProcessBackend` executes them out of process — and is
**warm-pinned**: instead of one anonymous pool it keeps ``workers``
single-process *lanes* and remembers which lane first served each shard,
so repeat traffic for a cell lands on the worker that already
materialised that cell's engine.  Worker-side, engines live in a
per-worker LRU under an optional byte budget
(``max_worker_engine_bytes``); parent-side, pin hits/misses/assignments
and dead-worker fallbacks are counted (:meth:`ProcessBackend.pin_stats`)
and per-worker build/eviction counters are introspectable
(:meth:`ProcessBackend.worker_stats`).  A pinned lane that is saturated
(its queue runs ``spill_margin`` deeper than the least-loaded lane)
spills to the least-loaded lane; a lane whose worker died is rebuilt and
the wave retried once, transparently.

Repeated deaths trip a per-lane **circuit breaker**: after
``breaker_threshold`` consecutive dead-worker retires the lane stops
admitting work for ``breaker_backoff_seconds`` (pinned traffic spills to
healthy lanes), then a single half-open probe wave decides whether the
lane re-admits or re-opens.  Breaker transitions are counted in
:meth:`ProcessBackend.breaker_stats`.

Deterministic fault injection (:mod:`repro.service.faults`) hooks both
tiers: :func:`run_wave_on_engine` applies task-side delay/error rules
before each member, and ``ProcessBackend`` applies dispatch-side
worker-kill rules — both behind a single module-global None check, so
the hot path pays nothing when no plan is installed.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from abc import ABC
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from dataclasses import replace as _dataclass_replace
from typing import Callable, Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import KOREngine
from repro.core.kernels import run_wave
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.graph.mutation import GraphDelta, apply_graph_delta
from repro.service import faults

__all__ = [
    "DEFAULT_WORKERS",
    "EngineHandle",
    "ExecutionBackend",
    "PartPatch",
    "ProcessBackend",
    "RemoteTaskError",
    "SerialBackend",
    "TaskOutcome",
    "ThreadBackend",
    "WaveTask",
    "backend_from_name",
    "run_wave_on_engine",
]

#: Fan-out width when the caller does not pick one.
DEFAULT_WORKERS = 4

#: How much deeper a pinned lane's queue may run than the least-loaded
#: lane before a task spills off its pin (counted as a pin miss).
DEFAULT_SPILL_MARGIN = 8

#: Consecutive dead-worker failures that open a lane's circuit breaker.
DEFAULT_BREAKER_THRESHOLD = 3

#: How long an open breaker refuses traffic before a half-open probe.
DEFAULT_BREAKER_BACKOFF_SECONDS = 1.0

_HANDLE_COUNTER = itertools.count()


class EngineHandle:
    """A picklable handle to one engine (one shard's worth of state).

    In the owning process the handle wraps a live engine.  Pickling ships
    the graph plus the *pre-built* cost tables and inverted index (plain
    dataclasses over numpy arrays), so a receiving worker process pays
    zero pre-processing: :meth:`engine` reassembles the engine from the
    parts on first use and caches it for the life of the worker.  The
    engine's *class* travels with the state, so a
    :class:`~repro.service.crosscell.BorderEngine` handle re-materialises
    as a ``BorderEngine`` (partitioned border tables and all), not as a
    flat :class:`~repro.core.engine.KOREngine`.

    ``key`` identifies the handle across process boundaries; two handles
    never share a key unless one was pickled from the other.
    """

    __slots__ = ("key", "_graph", "_tables", "_index", "_engine", "_engine_cls")

    def __init__(self, engine: KOREngine, key: str | None = None) -> None:
        self.key = key if key is not None else f"engine-{next(_HANDLE_COUNTER)}"
        self._engine: KOREngine | None = engine
        self._engine_cls = type(engine)
        self._graph = engine.graph
        self._tables = engine.tables
        self._index = engine.index

    def materialise(self) -> KOREngine:
        """A fresh live engine assembled from the pre-built parts.

        Unlike :meth:`engine` the result is *not* retained on the
        handle — the worker-side engine LRU owns the lifetime, so an
        evicted engine is actually freed instead of hiding here.
        """
        return self._engine_cls(self._graph, tables=self._tables, index=self._index)

    def reset(self, engine: KOREngine) -> None:
        """Swap this handle's state for *engine*'s, keeping the key.

        This is how a live update lands without re-registration: every
        registry (backend handle map, shard records, pool-worker handle
        copies) keeps pointing at the same key while the parts underneath
        change.  Worker-side copies are *not* updated by this call —
        ship them a :class:`PartPatch` (see
        :meth:`ExecutionBackend.apply_patches`).
        """
        self._engine = engine
        self._engine_cls = type(engine)
        self._graph = engine.graph
        self._tables = engine.tables
        self._index = engine.index

    def engine(self) -> KOREngine:
        """The live engine (materialised from parts after unpickling)."""
        if self._engine is None:
            self._engine = self.materialise()
        return self._engine

    def __getstate__(self) -> dict:
        return {
            "key": self.key,
            "graph": self._graph,
            "tables": self._tables,
            "index": self._index,
            "engine_cls": self._engine_cls,
        }

    def __setstate__(self, state: dict) -> None:
        self.key = state["key"]
        self._graph = state["graph"]
        self._tables = state["tables"]
        self._index = state["index"]
        self._engine_cls = state.get("engine_cls", KOREngine)
        self._engine = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineHandle({self.key!r}, {self._graph.num_nodes} nodes)"


@dataclass(frozen=True, eq=False)
class PartPatch:
    """A picklable *partial* update to one registered shard's state.

    This is the live-update currency: instead of unregistering a shard
    and shipping a whole rebuilt engine to every pool worker, the
    serving layer broadcasts the pieces that actually changed.  Every
    field is absolute (new state, not diffs-of-diffs), so re-applying a
    patch is a no-op — which is what makes the broadcast safe against a
    lane being (re)initialised from the already-updated parent handles
    concurrently.

    ``graph`` replaces the graph outright; ``graph_delta`` instead
    replays a :class:`~repro.graph.mutation.GraphDelta` against the
    recipient's current graph (cheaper on the wire; identical result on
    every replica because delta application is deterministic, including
    keyword-id interning order).  ``tables`` replaces the table object
    wholesale, while ``cell_tables`` + ``border`` substitute individual
    cells and border matrices into an existing
    :class:`~repro.prep.partition.PartitionedCostTables` — the
    incremental-repair fast path, shipping one repaired cell instead of
    every cell.  ``index`` replaces the inverted index.
    """

    key: str
    graph: object | None = None
    graph_delta: GraphDelta | None = None
    tables: object | None = None
    cell_tables: tuple[tuple[int, object], ...] = ()
    border: tuple[tuple[str, object], ...] = ()
    index: object | None = None

    def apply_to(self, handle: EngineHandle) -> None:
        """Fold this patch into *handle* (idempotent)."""
        graph = handle._graph
        if self.graph is not None:
            graph = self.graph
        elif self.graph_delta is not None:
            graph = apply_graph_delta(graph, self.graph_delta)
        tables = handle._tables
        if self.tables is not None:
            tables = self.tables
        elif self.cell_tables or self.border:
            cells = list(tables.cell_tables)
            for cell, cell_table in self.cell_tables:
                cells[cell] = cell_table
            # replace() re-runs __post_init__, which starts every cache
            # empty — the old caches memoise the old tables.
            tables = _dataclass_replace(
                tables, cell_tables=tuple(cells), **dict(self.border)
            )
        handle._graph = graph
        handle._tables = tables
        if self.index is not None:
            handle._index = self.index
        handle._engine = None


@dataclass(frozen=True)
class WaveTask:
    """The one picklable unit of work: same-``(algorithm, params)``
    queries against one registered shard, run member after member by a
    single :func:`repro.core.kernels.run_wave` call.

    A per-query task is a wave of one.  Failures stay per member — the
    wave resolves to one :class:`TaskOutcome` per query, in order.
    ``params`` is a sorted tuple of ``(name, value)`` pairs rather than a
    dict so waves are hashable and their pickled form is deterministic.
    """

    shard: str
    queries: tuple[KORQuery, ...]
    algorithm: str
    params: tuple[tuple[str, object], ...] = ()
    #: Out-of-band cancellation deadline.  Deliberately *not* part of
    #: ``params``: cache keys and wave grouping must not see it, and its
    #: identity hash keeps the frozen task hashable.
    deadline: Deadline | None = None

    @classmethod
    def build(
        cls,
        shard: str,
        queries: Sequence[KORQuery],
        algorithm: str,
        params: Mapping[str, object] | None = None,
        deadline: Deadline | None = None,
    ) -> "WaveTask":
        """Normalise a params mapping into task form."""
        items = tuple(sorted(params.items())) if params else ()
        return cls(
            shard=shard,
            queries=tuple(queries),
            algorithm=algorithm,
            params=items,
            deadline=deadline,
        )

    def failed(self, error: Exception) -> list["TaskOutcome"]:
        """One outcome per member, each carrying *error* — the verdict
        of a wave that could not run as a whole."""
        return [TaskOutcome(error=error) for _ in self.queries]


@dataclass
class TaskOutcome:
    """What one wave member produced (result or error, never both)."""

    result: KORResult | None = None
    error: Exception | None = None
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task produced a result."""
        return self.error is None and self.result is not None


class RemoteTaskError(QueryError):
    """A worker-process failure whose original exception could not cross
    the process boundary; carries the original type name and message."""


def run_wave_on_engine(
    engine: KOREngine, task: WaveTask, kernel_context=None
) -> list[TaskOutcome]:
    """Execute a wave against a live *engine*, one outcome per member.

    Fault rules fire per member through ``run_wave``'s ``on_member``
    hook — every member presents to the plan as its wave (something with
    a ``.shard``), so an injected error poisons only its own slot.

    A *wave-level* failure (anything :func:`repro.core.kernels.run_wave`
    itself raises, as opposed to a member's contained error) still
    yields one outcome per member, each carrying that error.

    ``kernel_context`` is accepted and ignored: ``benchmarks/e2e`` still
    passes the lockstep driver's cache object positionally.
    """
    # Fault hook: one global load + None check when no plan is
    # installed — the zero-overhead-when-off contract.
    plan = faults._ACTIVE
    on_member = None if plan is None else (lambda _index, _query: plan.on_task(task))
    try:
        wave = run_wave(
            engine,
            task.queries,
            task.algorithm,
            dict(task.params),
            deadline=task.deadline,
            on_member=on_member,
        )
    except Exception as error:  # noqa: BLE001 - wave-level fault, reported per member
        return task.failed(error)
    return [
        TaskOutcome(result=o.result, error=o.error, latency_seconds=o.latency_seconds)
        for o in wave
    ]


def _completed_future(outcomes: list[TaskOutcome]) -> Future:
    """A future that is already resolved to *outcomes*."""
    future: Future = Future()
    future.set_result(outcomes)
    return future


def _try_resolve(
    future: Future, outcomes: list[TaskOutcome] | None, error: BaseException | None
) -> None:
    """Resolve *future* unless a racing cancellation already did."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(outcomes)
    except InvalidStateError:  # cancelled while the work ran
        pass


def _engine_weight_bytes(engine: KOREngine) -> int:
    """Resident-byte estimate of one engine (its cost tables dominate)."""
    tables = getattr(engine, "tables", None)
    if tables is None:
        return 0
    memory = getattr(tables, "memory_bytes", None)
    if callable(memory):
        return int(memory())
    total = 0
    for name in ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma"):
        matrix = getattr(tables, name, None)
        if matrix is not None and hasattr(matrix, "nbytes"):
            total += int(matrix.nbytes)
    return total


# ----------------------------------------------------------------------
# process-worker plumbing (module level so it pickles by reference)
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {
    "handles": {},
    "engines": OrderedDict(),  # shard key -> live engine (LRU order)
    "weights": {},  # shard key -> resident byte estimate
    "budget": None,
    "builds": {},  # shard key -> times materialised in this worker
    "evictions": 0,
}


def _process_worker_init(
    handles: tuple[EngineHandle, ...],
    engine_budget: int | None,
    fault_rules: tuple = (),
) -> None:
    """Pool initializer: install this generation's handles and budget.

    ``fault_rules`` ships the active fault plan's task-side rules into
    the worker, where the parent's module global is invisible; the
    worker installs its own plan over them so ``run_wave_on_engine``'s
    single hook covers every backend.
    """
    _WORKER_STATE["handles"] = {handle.key: handle for handle in handles}
    _WORKER_STATE["engines"] = OrderedDict()
    _WORKER_STATE["weights"] = {}
    _WORKER_STATE["budget"] = engine_budget
    _WORKER_STATE["builds"] = {}
    _WORKER_STATE["evictions"] = 0
    if fault_rules:
        faults.install(faults.FaultPlan(fault_rules))
    else:
        faults.clear()


def _worker_engine(key: str) -> KOREngine:
    """This worker's engine for shard *key*, via the per-worker LRU.

    A cache hit refreshes recency; a miss materialises the engine from
    its handle (counted in ``builds``) and, when a byte budget is set,
    evicts least-recently-used engines until the resident estimate fits
    again — always keeping at least the engine just built.
    """
    engines: OrderedDict = _WORKER_STATE["engines"]
    engine = engines.get(key)
    if engine is not None:
        engines.move_to_end(key)
        return engine
    handle: EngineHandle = _WORKER_STATE["handles"][key]
    engine = handle.materialise()
    builds = _WORKER_STATE["builds"]
    builds[key] = builds.get(key, 0) + 1
    weights: dict = _WORKER_STATE["weights"]
    engines[key] = engine
    weights[key] = _engine_weight_bytes(engine)
    budget = _WORKER_STATE["budget"]
    if budget is not None:
        while len(engines) > 1 and sum(weights.values()) > budget:
            evicted_key, _evicted = engines.popitem(last=False)
            weights.pop(evicted_key, None)
            _WORKER_STATE["evictions"] += 1
    return engine


def _portable_error(error: Exception) -> Exception:
    """An exception guaranteed to survive pickling back to the parent."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickling failure downgrades
        return RemoteTaskError(f"{type(error).__name__}: {error}")


def _process_run_wave(task: WaveTask) -> list[TaskOutcome]:
    """Worker-side wave entry point (looks the engine up by shard key)."""
    if task.shard not in _WORKER_STATE["handles"]:
        return task.failed(
            RemoteTaskError(
                f"shard {task.shard!r} is not registered in this worker; "
                f"known shards: {sorted(_WORKER_STATE['handles'])}"
            )
        )
    outcomes = run_wave_on_engine(_worker_engine(task.shard), task)
    for outcome in outcomes:
        if outcome.error is not None:
            outcome.error = _portable_error(outcome.error)
    return outcomes


def _process_apply_patches(patches: tuple) -> bool:
    """Worker-side live update: patch handles, drop derived state.

    Runs through the lane's ordinary FIFO queue, which is the epoch
    fence: tasks submitted before the patch see the old engines, tasks
    submitted after see the new ones, and nothing in between.
    """
    for patch in patches:
        handle = _WORKER_STATE["handles"].get(patch.key)
        if handle is not None:
            patch.apply_to(handle)
        # Materialised engines and weight estimates memoise the
        # pre-patch parts; next use rebuilds from the handle.
        _WORKER_STATE["engines"].pop(patch.key, None)
        _WORKER_STATE["weights"].pop(patch.key, None)
    return True


def _worker_introspect(_: int = 0) -> dict:
    """Worker-side counters for :meth:`ProcessBackend.worker_stats`."""
    return {
        "pid": os.getpid(),
        "builds": dict(_WORKER_STATE["builds"]),
        "resident": list(_WORKER_STATE["engines"]),
        "resident_bytes": sum(_WORKER_STATE["weights"].values()),
        "evictions": _WORKER_STATE["evictions"],
    }


def _worker_ping(_: int) -> bool:
    """No-op used by :meth:`ProcessBackend.warm_up`."""
    return True


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class ExecutionBackend(ABC):
    """Strategy for executing serving-layer work.

    The primitive is :meth:`submit_wave` (:meth:`submit_waves` is its
    windowed list form); waves name their engine by shard key, so the
    engine must first be made known via :meth:`register`.  ``in_process``
    backends run waves on the live registered engines and additionally
    accept closures (:meth:`submit_call`); out-of-process backends only
    accept :class:`WaveTask` work.

    ``max_in_flight`` bounds concurrent submissions: the backend admits
    at most that many unresolved futures, blocking further
    ``submit_*`` calls until one completes.
    """

    #: Stable name used by benchmarks, stats and ``backend_from_name``.
    name: str = "?"
    #: Whether closures sharing parent memory can run on this backend.
    in_process: bool = True

    def __init__(self, max_in_flight: int | None = None) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise QueryError(f"max_in_flight must be >= 1 or None, got {max_in_flight}")
        self._handles: dict[str, EngineHandle] = {}
        self._max_in_flight = max_in_flight
        self._admission = (
            threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        )
        self._depth_lock = threading.Lock()
        self._in_flight = 0
        self._peak_in_flight = 0
        self._admission_waits = 0

    # -- shard registry ------------------------------------------------
    def register(self, handle: EngineHandle) -> EngineHandle:
        """Make *handle*'s engine addressable by tasks naming its key."""
        existing = self._handles.get(handle.key)
        if existing is handle:
            return handle
        self._handles[handle.key] = handle
        self._on_register(handle)
        return handle

    def register_engine(self, engine: KOREngine, key: str | None = None) -> EngineHandle:
        """Convenience: wrap *engine* in a handle and register it."""
        return self.register(EngineHandle(engine, key=key))

    def unregister(self, key: str) -> None:
        """Forget the shard under *key* (a no-op for unknown keys).

        Callers that retire an engine (e.g. ``replace_engine``) must
        unregister its handle, or the backend keeps the graph, tables
        and index alive — and keeps shipping them to pool workers.
        Tasks already submitted for the shard run (or fail) with the
        outcome they would have had; only *new* submissions see the
        shrunk registry.
        """
        if self._handles.pop(key, None) is not None:
            self._on_registry_change()

    def _on_register(self, handle: EngineHandle) -> None:
        """Hook for backends that must propagate registry additions."""
        self._on_registry_change()

    def _on_registry_change(self) -> None:
        """Hook for backends that must propagate any registry change."""

    def apply_patches(self, patches: Sequence[PartPatch]) -> None:
        """Propagate live updates for already-reset parent handles.

        The caller is expected to have folded the new state into the
        registered handles first (:meth:`EngineHandle.reset` or
        :meth:`PartPatch.apply_to`) — in-process backends read engines
        straight off those handles, so this method only lets
        out-of-process backends forward the patches to their workers via
        :meth:`_on_patch`.  Unknown keys are ignored: patching a shard
        that was unregistered mid-flight must not fail the update.
        """
        live = tuple(patch for patch in patches if patch.key in self._handles)
        if live:
            self._on_patch(live)

    def _on_patch(self, patches: tuple[PartPatch, ...]) -> None:
        """Hook for backends that must forward patches to workers."""

    @property
    def shard_keys(self) -> tuple[str, ...]:
        """Keys of every registered shard, sorted."""
        return tuple(sorted(self._handles))

    def _unregistered(self, task: WaveTask) -> list[TaskOutcome]:
        """The per-member verdict of a wave naming an unknown shard."""
        return task.failed(
            QueryError(
                f"shard {task.shard!r} is not registered with this "
                f"{type(self).__name__}; known shards: {sorted(self._handles)}"
            )
        )

    def _run_wave_one(self, task: WaveTask) -> list[TaskOutcome]:
        handle = self._handles.get(task.shard)
        if handle is None:
            return self._unregistered(task)
        return run_wave_on_engine(handle.engine(), task)

    # -- admission -----------------------------------------------------
    @property
    def max_in_flight(self) -> int | None:
        """Admission bound (None = unbounded)."""
        return self._max_in_flight

    @property
    def in_flight(self) -> int:
        """Submissions admitted but not yet resolved."""
        with self._depth_lock:
            return self._in_flight

    @property
    def peak_in_flight(self) -> int:
        """Deepest concurrent submission queue observed so far."""
        with self._depth_lock:
            return self._peak_in_flight

    @property
    def admission_waits(self) -> int:
        """Times a submission had to block for an admission slot."""
        with self._depth_lock:
            return self._admission_waits

    def _release_slot(self, _future: Future | None = None) -> None:
        with self._depth_lock:
            self._in_flight -= 1
        if self._admission is not None:
            self._admission.release()

    def _admitted(self, submit: Callable[[], Future]) -> Future:
        """Run one submission through admission + depth accounting."""
        if self._admission is not None and not self._admission.acquire(blocking=False):
            with self._depth_lock:
                self._admission_waits += 1
            self._admission.acquire()
        with self._depth_lock:
            self._in_flight += 1
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight
        try:
            future = submit()
        except BaseException:
            self._release_slot()
            raise
        future.add_done_callback(self._release_slot)
        return future

    # -- submission primitives -----------------------------------------
    def _submit_wave(self, task: WaveTask) -> Future:
        """Backend-specific wave submission (no admission control).

        The in-process default executes :func:`run_wave_on_engine` on the
        backend's own closure machinery; :class:`ProcessBackend`
        overrides this to dispatch the picklable wave through its lanes.
        """
        return self._submit_call(self._run_wave_one, task)

    def submit_wave(self, task: WaveTask) -> Future:
        """Submit one wave, returning a ``Future[list[TaskOutcome]]``.

        One wave occupies one admission slot however many queries it
        carries — waves are the coarser scheduling unit by design.  The
        future resolves to one outcome per member in order — query
        failures are *inside* the outcomes; the future itself only
        raises for submission-level faults (cancellation, a worker that
        died beyond retry), in which case the caller should resubmit the
        members as waves of one.  Blocks when ``max_in_flight`` is
        reached.
        """
        return self._admitted(lambda: self._submit_wave(task))

    def _submit_call(self, fn: Callable, *args) -> Future:
        """Backend-specific closure submission (in-process backends)."""
        raise QueryError(
            f"{type(self).__name__} cannot execute in-process closures; "
            "submit WaveTask work via submit_wave() instead"
        )

    def submit_call(self, fn: Callable, *args) -> Future:
        """Submit an in-process closure, returning its ``Future``.

        Out-of-process backends raise :class:`QueryError` — closures
        cannot cross the process boundary; describe the work as
        :class:`WaveTask` objects instead.
        """
        if not self.in_process:
            raise QueryError(
                f"{type(self).__name__} cannot execute in-process closures; "
                "submit WaveTask work via submit_wave() instead"
            )
        return self._admitted(lambda: self._submit_call(fn, *args))

    # -- windowed submission (shared across backends) -------------------
    def _parallel_limit(self, workers: int | None) -> int | None:
        """Effective per-call submission window (None = unbounded)."""
        if workers is not None and workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        return workers

    def submit_waves(
        self, tasks: Sequence[WaveTask], workers: int | None = None
    ) -> list[Future]:
        """Submit every wave, at most ``workers`` unresolved at a time.

        Returns the futures in submission order.  ``workers`` narrows
        the window below what the backend would run concurrently anyway
        (a thread pool's width; a process pool ignores it — lane count
        is fixed at construction).
        """
        limit = self._parallel_limit(workers)
        if limit is None or limit >= len(tasks):
            return [self.submit_wave(task) for task in tasks]
        futures: list[Future] = []
        pending: set[Future] = set()
        for task in tasks:
            if len(pending) >= limit:
                _done, pending = wait(pending, return_when=FIRST_COMPLETED)
            future = self.submit_wave(task)
            futures.append(future)
            pending.add(future)
        return futures

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release any pooled resources (idempotent).

        A closed backend may be submitted to again: pools are rebuilt
        lazily on the next submission.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shards={list(self._handles)})"


class SerialBackend(ExecutionBackend):
    """Everything in the calling thread — the reference implementation.

    Useful as the determinism baseline and for debugging (tracebacks
    point straight at the failing query).  ``submit_wave`` executes the
    wave *during submission* and returns an already-resolved future.
    """

    name = "serial"
    in_process = True

    def _submit_call(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - surfaces via future
            future.set_exception(error)
        return future


class ThreadBackend(ExecutionBackend):
    """``ThreadPoolExecutor`` fan-out — PR 1's concurrency, as a backend.

    Threads share the parent's engines directly (no pickling), which
    makes this the cheapest concurrent backend for I/O-ish or
    numpy-heavy work, but CPU-bound pure-python search loops still share
    the GIL; see :class:`ProcessBackend` for those.

    The pool is persistent (created lazily at first submission, sized
    ``workers``) so submitted futures survive between calls — the
    property the async front-end builds on.  A per-call ``workers``
    argument on :meth:`submit_waves` narrows the submission window
    below the pool width; it cannot widen the pool.
    """

    name = "thread"
    in_process = True

    def __init__(self, workers: int = DEFAULT_WORKERS, max_in_flight: int | None = None) -> None:
        super().__init__(max_in_flight=max_in_flight)
        if workers < 1:
            raise QueryError(f"thread backend workers must be >= 1, got {workers}")
        self._workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-backend",
                )
            return self._executor

    def _parallel_limit(self, workers: int | None) -> int | None:
        limit = super()._parallel_limit(workers)
        return limit if limit is not None else self._workers

    def _submit_call(self, fn: Callable, *args) -> Future:
        return self._pool().submit(fn, *args)

    def close(self) -> None:
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


@dataclass
class _Lane:
    """One warm-pinnable slot of a :class:`ProcessBackend`.

    A lane owns (at most) one single-process executor; ``pending``
    counts tasks dispatched to it and not yet resolved — the signal the
    router uses for least-loaded assignment and saturation spill.
    ``generation`` increments every time the executor is retired, so
    completions of tasks dispatched to a *previous* executor neither
    decrement the rebuilt lane's count nor tear the rebuild down again
    (one dead worker = one fallback, however many tasks it sank).
    """

    index: int
    executor: ProcessPoolExecutor | None = None
    pending: int = 0
    generation: int = 0
    #: Shards this lane's current worker has been asked to serve (resets
    #: when the lane is rebuilt) — a parent-side proxy for which engines
    #: the worker has warm.
    seen: set = field(default_factory=set)
    #: Circuit-breaker state: consecutive dead-worker failures, the
    #: monotonic instant before which the breaker refuses traffic
    #: (0.0 = closed), and whether a half-open probe is in flight.
    failures: int = 0
    open_until: float = 0.0
    probing: bool = False


class ProcessBackend(ExecutionBackend):
    """Warm-pinned process fan-out over picklable shard handles.

    ``workers`` independent single-process **lanes** are created lazily;
    each lane's initializer installs every handle registered *so far*,
    so registering a new shard after a lane exists retires every lane
    (workers would not know the new key) and the next submission builds
    fresh ones.  Engines are materialised worker-side from pre-built
    parts — workers never repeat the tables/index pre-processing — and
    live in a per-worker LRU bounded by ``max_worker_engine_bytes``.

    **Warm-pinning**: the first task for a shard is assigned to the
    least-loaded lane and the shard is pinned there; later tasks for the
    same shard prefer the pinned lane, so only that worker pays the
    engine build.  When the pinned lane's queue runs ``spill_margin``
    deeper than the least-loaded lane, the task spills to the
    least-loaded lane instead (a pin *miss* — throughput beats
    affinity).  A lane whose worker process died is detected at
    submission or completion, torn down, rebuilt, and the task retried
    once (a ``dead_worker_fallbacks`` count); the retry prefers the
    rebuilt pin, whose fresh worker rebuilds the engine on demand.

    ``workers=None`` sizes the lane count to the machine.  The per-call
    ``workers`` argument of :meth:`submit_waves` is ignored (lane count is
    fixed at construction).
    """

    name = "process"
    in_process = False

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        max_in_flight: int | None = None,
        max_worker_engine_bytes: int | None = None,
        spill_margin: int = DEFAULT_SPILL_MARGIN,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_backoff_seconds: float = DEFAULT_BREAKER_BACKOFF_SECONDS,
    ) -> None:
        super().__init__(max_in_flight=max_in_flight)
        if workers is not None and workers < 1:
            raise QueryError(f"process backend workers must be >= 1, got {workers}")
        if max_worker_engine_bytes is not None and max_worker_engine_bytes < 0:
            raise QueryError(
                f"max_worker_engine_bytes must be >= 0 or None, got {max_worker_engine_bytes}"
            )
        if spill_margin < 0:
            raise QueryError(f"spill_margin must be >= 0, got {spill_margin}")
        if breaker_threshold < 1:
            raise QueryError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        if breaker_backoff_seconds <= 0:
            raise QueryError(
                f"breaker_backoff_seconds must be > 0, got {breaker_backoff_seconds}"
            )
        if workers is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # non-Linux
                workers = os.cpu_count() or 1
        self._workers = workers
        self._start_method = start_method
        self._max_worker_engine_bytes = max_worker_engine_bytes
        self._spill_margin = spill_margin
        self._breaker_threshold = breaker_threshold
        self._breaker_backoff_seconds = breaker_backoff_seconds
        self._route_lock = threading.Lock()
        self._lanes = [_Lane(index=i) for i in range(workers)]
        self._pins: dict[str, int] = {}
        self._pin_counters = {
            "assignments": 0,
            "hits": 0,
            "misses": 0,
            "dead_worker_fallbacks": 0,
        }
        self._breaker_counters = {
            "opened": 0,
            "closed": 0,
            "half_open_probes": 0,
            "short_circuits": 0,
        }

    # -- lane plumbing -------------------------------------------------
    def _mp_context(self):
        if self._start_method is None:
            return None
        import multiprocessing

        return multiprocessing.get_context(self._start_method)

    def _lane_executor_locked(self, lane: _Lane) -> ProcessPoolExecutor:
        if lane.executor is None:
            lane.executor = ProcessPoolExecutor(
                max_workers=1,
                mp_context=self._mp_context(),
                initializer=_process_worker_init,
                initargs=(
                    tuple(self._handles.values()),
                    self._max_worker_engine_bytes,
                    faults.worker_rules(),
                ),
            )
            lane.seen = set()
        return lane.executor

    def _retire_lane(
        self, lane: _Lane, generation: int | None = None, dead_worker: bool = False
    ) -> None:
        """Tear down a lane's executor (rebuilt lazily on next use).

        ``generation``, when given, makes the retire conditional: if the
        lane has already moved past that generation (another failure of
        the same dead worker got here first), this is a no-op — the
        fresh executor must not be torn down for its predecessor's
        sins, and one death counts one fallback.
        """
        with self._route_lock:
            if generation is not None and lane.generation != generation:
                return
            executor, lane.executor = lane.executor, None
            lane.pending = 0
            lane.seen = set()
            lane.generation += 1
            if dead_worker:
                self._pin_counters["dead_worker_fallbacks"] += 1
                lane.failures += 1
                lane.probing = False
                if lane.failures >= self._breaker_threshold:
                    if lane.open_until == 0.0:
                        self._breaker_counters["opened"] += 1
                    lane.open_until = time.monotonic() + self._breaker_backoff_seconds
            else:
                # Deliberate retire (registry change, close): breaker
                # state describes a worker that no longer exists.
                lane.failures = 0
                lane.open_until = 0.0
                lane.probing = False
        if executor is not None:
            # wait=False: a broken pool has nothing orderly left to wait
            # for, and a healthy one (registry change) drains on its own.
            executor.shutdown(wait=False)

    def _admitting_lanes_locked(self) -> list[_Lane]:
        """Lanes whose breaker admits traffic right now.

        Closed lanes always admit; an open lane past its backoff admits
        one half-open probe at a time (``probing`` gates the stampede).
        When *every* lane is open, the earliest-open lane is force-probed
        — routing must never deadlock on an all-open backend.
        """
        now = time.monotonic()
        admitted = [
            lane
            for lane in self._lanes
            if lane.open_until == 0.0
            or (now >= lane.open_until and not lane.probing)
        ]
        if not admitted:
            admitted = [min(self._lanes, key=lambda lane: (lane.open_until, lane.index))]
        return admitted

    def _route_locked(self, shard: str) -> _Lane:
        """Pick the lane for one task (caller holds the route lock)."""
        lanes = self._admitting_lanes_locked()
        admitted = {lane.index for lane in lanes}
        least = min(lanes, key=lambda lane: (lane.pending, lane.index))
        chosen: _Lane
        pinned_index = self._pins.get(shard)
        if pinned_index is None:
            self._pins[shard] = least.index
            self._pin_counters["assignments"] += 1
            chosen = least
        elif pinned_index not in admitted:
            # The pin's breaker is open: spill to a healthy lane without
            # re-pinning — the pin re-admits when the breaker closes.
            self._breaker_counters["short_circuits"] += 1
            self._pin_counters["misses"] += 1
            chosen = least
        else:
            pinned = self._lanes[pinned_index]
            if pinned.pending - least.pending > self._spill_margin:
                # Saturated pin: prefer a lane that has already seen this
                # shard (its worker likely holds the engine warm) before
                # paying a cold build on the least-loaded lane.
                warm = [
                    lane
                    for lane in lanes
                    if shard in lane.seen
                    and pinned.pending - lane.pending > self._spill_margin
                ]
                self._pin_counters["misses"] += 1
                chosen = (
                    min(warm, key=lambda lane: (lane.pending, lane.index))
                    if warm
                    else least
                )
            else:
                self._pin_counters["hits"] += 1
                chosen = pinned
        if chosen.open_until > 0.0 and not chosen.probing:
            chosen.probing = True
            self._breaker_counters["half_open_probes"] += 1
        return chosen

    # -- registry / lifecycle ------------------------------------------
    def _on_registry_change(self) -> None:
        # Workers of existing lanes were initialised with a different
        # handle set; retire them so the next submission ships the
        # current one.
        for lane in self._lanes:
            self._retire_lane(lane)

    def _on_patch(self, patches: tuple[PartPatch, ...]) -> None:
        """Broadcast a live update to every started lane, in-band.

        Unlike a registry change this does *not* retire lanes: the patch
        travels the same single-worker FIFO queue as ordinary tasks, so
        each worker applies it after everything submitted before the
        update and before everything submitted after — a per-lane epoch
        fence that keeps warm engines warm for every unpatched shard.
        Lanes not yet started need nothing: their initializer will ship
        the already-patched parent handles.  A lane whose broadcast
        fails is retired (its next submission rebuilds it with current
        state), so a crashed worker cannot keep serving pre-update data.
        """
        with self._route_lock:
            live = [
                (lane, lane.executor, lane.generation)
                for lane in self._lanes
                if lane.executor is not None
            ]
        pending = []
        for lane, executor, generation in live:
            try:
                pending.append((lane, generation, executor.submit(_process_apply_patches, patches)))
            except (BrokenProcessPool, RuntimeError):
                self._retire_lane(lane, generation=generation, dead_worker=True)
        for lane, generation, future in pending:
            try:
                future.result()
            except (BrokenProcessPool, CancelledError, RuntimeError):
                self._retire_lane(lane, generation=generation, dead_worker=True)

    def close(self) -> None:
        for lane in self._lanes:
            with self._route_lock:
                executor, lane.executor = lane.executor, None
                lane.pending = 0
                lane.seen = set()
                lane.generation += 1
                lane.failures = 0
                lane.open_until = 0.0
                lane.probing = False
            if executor is not None:
                executor.shutdown(wait=True)

    # -- submission ----------------------------------------------------
    def _submit_wave(self, task: WaveTask) -> Future:
        if task.shard not in self._handles:
            # Fail fast in the parent: the workers would only echo this.
            return _completed_future(self._unregistered(task))
        outer: Future = Future()
        self._dispatch(task, outer, retried=False)
        return outer

    def _dispatch(self, task: WaveTask, outer: Future, retried: bool) -> None:
        with self._route_lock:
            lane = self._route_locked(task.shard)
            executor = self._lane_executor_locked(lane)
            generation = lane.generation
            lane.pending += 1
            lane.seen.add(task.shard)
        plan = faults._ACTIVE
        if plan is not None:
            # Parent-side kill faults fire here, where the routed lane's
            # worker pid is known — the submit below then trips the
            # dead-worker retry (and, repeated, the breaker).
            plan.on_dispatch(lane.index, executor, task)
        try:
            inner = executor.submit(_process_run_wave, task)
        except (BrokenProcessPool, RuntimeError) as error:
            with self._route_lock:
                if lane.generation == generation:
                    lane.pending -= 1
            if not retried:
                self._retire_lane(lane, generation=generation, dead_worker=True)
                self._dispatch(task, outer, retried=True)
                return
            _try_resolve(outer, None, error)
            return
        inner.add_done_callback(
            lambda f, task=task, lane=lane, generation=generation: self._finish(
                task, outer, lane, generation, f, retried
            )
        )

    def _finish(
        self,
        task: WaveTask,
        outer: Future,
        lane: _Lane,
        generation: int,
        inner: Future,
        retried: bool,
    ) -> None:
        worked = not inner.cancelled() and inner.exception() is None
        with self._route_lock:
            if lane.generation == generation:
                lane.pending -= 1
                if worked and (lane.failures or lane.open_until or lane.probing):
                    # A completed task on this executor generation proves
                    # the worker is healthy: close the breaker.
                    if lane.open_until > 0.0 or lane.probing:
                        self._breaker_counters["closed"] += 1
                    lane.failures = 0
                    lane.open_until = 0.0
                    lane.probing = False
        if inner.cancelled():
            if not outer.cancel():
                error = QueryError("task was cancelled in the worker pool")
                _try_resolve(outer, task.failed(error), None)
            return
        error = inner.exception()
        if isinstance(error, BrokenProcessPool) and not retried:
            # The lane's worker died under this task: rebuild the lane
            # (once — sibling victims of the same death find the
            # generation already moved on) and retry transparently.
            self._retire_lane(lane, generation=generation, dead_worker=True)
            self._dispatch(task, outer, retried=True)
            return
        if error is not None:
            _try_resolve(outer, None, error)
        else:
            _try_resolve(outer, inner.result(), None)

    def _parallel_limit(self, workers: int | None) -> int | None:
        # Lane count is fixed at construction; the per-call argument is
        # accepted for interface compatibility and ignored.
        return None

    # -- introspection -------------------------------------------------
    def pin_stats(self) -> dict[str, int]:
        """Parent-side warm-pinning counters (see class docstring)."""
        with self._route_lock:
            return dict(self._pin_counters)

    def breaker_stats(self) -> dict:
        """Circuit-breaker transition counters plus per-lane state."""
        now = time.monotonic()
        with self._route_lock:
            lanes = [
                {
                    "lane": lane.index,
                    "state": (
                        "closed"
                        if lane.open_until == 0.0
                        else ("half_open" if now >= lane.open_until else "open")
                    ),
                    "failures": lane.failures,
                    "probing": lane.probing,
                }
                for lane in self._lanes
            ]
            return {**self._breaker_counters, "lanes": lanes}

    def worker_stats(self, timeout: float = 60.0) -> dict[int, dict]:
        """Per-lane worker counters (pid, builds, resident engines,
        evictions) for every lane whose pool has been started.

        This round-trips a control task through each live lane — cheap,
        but not free; meant for tests, demos and debugging endpoints.
        """
        with self._route_lock:
            live = [
                (lane.index, lane.executor)
                for lane in self._lanes
                if lane.executor is not None
            ]
        stats: dict[int, dict] = {}
        for index, executor in live:
            try:
                stats[index] = executor.submit(_worker_introspect).result(timeout=timeout)
            except Exception as error:  # noqa: BLE001 - introspection only
                stats[index] = {"error": f"{type(error).__name__}: {error}"}
        return stats

    def warm_up(self) -> None:
        """Start every lane and spawn its worker process.

        Pinging each lane makes it spawn its worker up front, so a later
        timed run does not pay process start-up.  Per-shard engine
        assembly inside each worker is still lazy — warm real engines by
        running one un-timed batch.
        """
        pings = []
        for lane in self._lanes:
            with self._route_lock:
                executor = self._lane_executor_locked(lane)
            pings.append(executor.submit(_worker_ping, lane.index))
        for ping in pings:
            ping.result()


def backend_from_name(
    name: str, workers: int | None = None, **kwargs
) -> ExecutionBackend:
    """Build a backend from its :attr:`~ExecutionBackend.name`.

    Recognised names: ``serial``, ``thread``, ``process``.  This is what
    the test suite and CI matrix use to honour the ``REPRO_BACKEND``
    environment variable.
    """
    normalized = name.strip().lower()
    if normalized == "serial":
        return SerialBackend(**kwargs)
    if normalized == "thread":
        return ThreadBackend(
            workers=workers if workers is not None else DEFAULT_WORKERS, **kwargs
        )
    if normalized == "process":
        return ProcessBackend(workers=workers, **kwargs)
    raise QueryError(
        f"unknown execution backend {name!r}; expected serial, thread or process"
    )
