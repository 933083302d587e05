"""Pluggable execution backends for the serving layer.

The serving layer describes compute work in exactly one currency: the
**wave** (:class:`WaveTask`) — one or more same-``(algorithm, params)``
queries addressed at the engine registered under one shard key, shipped
as *one* submission and executed member after member by
:func:`run_wave_on_engine` on that engine.  A single query is a wave of
one.  What a wave buys is transport: one submission, one future and — on
a process pool — one pickle + IPC round trip for all its members, plus
one shared candidate-set pass over the index.

The primitive every backend implements is **futures-based submission**:
:meth:`ExecutionBackend.submit_wave` hands one wave to the backend and
immediately returns a ``concurrent.futures.Future`` resolving to one
:class:`TaskOutcome` per member, in order.  A member's failure stays in
its own outcome; the future itself only raises for submission-level
faults (cancellation, a worker that died beyond retry), which the batch
executor answers by resubmitting the members as waves of one
(:func:`repro.service.batch.dispatch_waves`).

Every backend counts its unresolved submissions: the current depth and
its high-water mark (:attr:`~ExecutionBackend.in_flight`,
:attr:`~ExecutionBackend.peak_in_flight`) surface in service snapshots as
``queue_depth_peak``.  A backend admits every submission; the stack's one
admission control is the HTTP front door's ``max_pending`` (503).

:class:`SerialBackend` executes waves inline, in the calling thread, on
the live engines behind the registered handles; concurrency in process
comes from concurrent callers (the async front end's executor threads).
There is no thread-pool backend: the label searches hold the GIL, so a
pool cannot run two waves at once, and it measured slower than inline on
every batch shape tried.  :class:`ProcessBackend` executes waves out of
process on ``workers`` single-process *lanes*: each wave goes to the
least-loaded lane whose breaker admits traffic, so the waves of one
batch run side by side however many shards they address.  A worker
builds an engine from a handle's pre-built parts on first use and keeps
it until a live update or a lane rebuild replaces it; parent-side, lane
hits/misses and dead-worker fallbacks are counted
(:meth:`ProcessBackend.pin_stats`) and per-worker build counters are
introspectable (:meth:`ProcessBackend.worker_stats`).  A lane whose
worker died is rebuilt and the wave retried once, transparently.

Repeated deaths trip a per-lane **circuit breaker**: after
:data:`BREAKER_THRESHOLD` consecutive dead-worker retires the lane stops
admitting work for :data:`BREAKER_BACKOFF_SECONDS` (waves route to the
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
from abc import ABC, abstractmethod
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
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
    "WaveTask",
    "backend_from_name",
    "run_wave_on_engine",
]

#: Process-lane count :class:`~repro.service.config.ServiceConfig` asks
#: for when the caller does not pick one.
DEFAULT_WORKERS = 4

#: Consecutive dead-worker failures that open a lane's circuit breaker.
BREAKER_THRESHOLD = 3

#: How long an open breaker refuses traffic before a half-open probe.
BREAKER_BACKOFF_SECONDS = 1.0

_HANDLE_COUNTER = itertools.count()


class EngineHandle:
    """A picklable handle to one engine (one shard's worth of state).

    In the owning process the handle wraps a live engine.  Pickling ships
    the graph plus the *pre-built* cost tables and inverted index (plain
    dataclasses over numpy arrays), so a receiving worker process pays
    zero pre-processing: :meth:`engine` reassembles the engine from the
    parts on first use and keeps it until a patch replaces a part: always
    a :class:`~repro.core.engine.KOREngine`, over whichever tables the
    handle carries (flat, or partitioned with their border tier).

    ``key`` identifies the handle across process boundaries; two handles
    never share a key unless one was pickled from the other.
    """

    __slots__ = ("key", "_graph", "_tables", "_index", "_engine")

    def __init__(self, engine: KOREngine, key: str | None = None) -> None:
        self.key = key if key is not None else f"engine-{next(_HANDLE_COUNTER)}"
        self._engine: KOREngine | None = engine
        self._graph = engine.graph
        self._tables = engine.tables
        self._index = engine.index

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
        self._graph = engine.graph
        self._tables = engine.tables
        self._index = engine.index

    def engine(self) -> KOREngine:
        """The live engine, assembled from the parts on first use after
        unpickling or a patch and kept until the next one."""
        if self._engine is None:
            self._engine = KOREngine(self._graph, tables=self._tables, index=self._index)
        return self._engine

    def __getstate__(self) -> dict:
        return {
            "key": self.key,
            "graph": self._graph,
            "tables": self._tables,
            "index": self._index,
        }

    def __setstate__(self, state: dict) -> None:
        self.key = state["key"]
        self._graph = state["graph"]
        self._tables = state["tables"]
        self._index = state["index"]
        self._engine = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineHandle({self.key!r}, {self._graph.num_nodes} nodes)"


@dataclass(frozen=True, eq=False)
class PartPatch:
    """A picklable update to one registered shard's state.

    This is the live-update currency: instead of unregistering a shard
    and re-initialising every pool worker, the serving layer broadcasts
    the parts that changed.  Each field is a whole part — ``graph``,
    ``tables`` or ``index`` — and ``None`` leaves that part as it is, so
    re-applying a patch is a no-op: the broadcast is safe against a lane
    being (re)initialised from the already-updated parent handles
    concurrently.
    """

    key: str
    graph: object | None = None
    tables: object | None = None
    index: object | None = None

    def apply_to(self, handle: EngineHandle) -> None:
        """Fold this patch into *handle* (idempotent)."""
        if self.graph is not None:
            handle._graph = self.graph
        if self.tables is not None:
            handle._tables = self.tables
        if self.index is not None:
            handle._index = self.index
        handle._engine = None


@dataclass(frozen=True)
class WaveTask:
    """The one picklable unit of work: same-``(algorithm, params)``
    queries against one registered shard, run member after member by a
    single :func:`run_wave_on_engine` call.

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


def run_wave_on_engine(engine: KOREngine, task: WaveTask, kernel_context=None) -> list[TaskOutcome]:
    """Execute a wave against a live *engine*, one outcome per member.

    The members' keywords are resolved through the index **once** (one
    ``candidate_sets`` pass over their union); the members then run one
    after another through :meth:`~repro.core.engine.KOREngine.run`, the
    entry point a solo query takes, so a wave's results — routes,
    scores, failure reasons and per-label statistics — are those of N
    solo runs by construction.

    Failures are contained per member: an injected fault (the active
    plan's ``on_task`` fires before each member), an expired deadline,
    an unbindable query or a search error poison only that member's
    outcome; the members before it keep their results and the members
    after it still run.  The deadline is checked before each member and
    ticks inside its search loop.  A *wave-level* failure (the shared
    candidate-set pass raising) yields one outcome per member, each
    carrying that error.

    ``kernel_context`` is accepted and ignored: ``benchmarks/e2e`` still
    passes a :class:`~repro.core.kernels.KernelContext` positionally.
    """
    try:
        candidates = engine.candidate_sets(
            {word for query in task.queries for word in query.keywords}
        )
    except Exception as error:  # noqa: BLE001 - wave-level fault, reported per member
        return task.failed(error)
    params = dict(task.params)
    deadline = task.deadline
    # Fault hook: one global load + None check when no plan is
    # installed — the zero-overhead-when-off contract.
    plan = faults._ACTIVE
    outcomes: list[TaskOutcome] = []
    for query in task.queries:
        begin = time.perf_counter()
        result = error = None
        try:
            if plan is not None:
                plan.on_task(task)
            if deadline is not None:
                deadline.check()
            binding = engine.bind(query, candidates=candidates)
            result = engine.run(
                query, algorithm=task.algorithm, binding=binding, deadline=deadline, **params
            )
        except Exception as exc:  # noqa: BLE001 - contained in the member's slot
            error = exc
        outcomes.append(TaskOutcome(result, error, time.perf_counter() - begin))
    return outcomes


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


# ----------------------------------------------------------------------
# process-worker plumbing (module level so it pickles by reference)
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {
    "handles": {},  # shard key -> handle; its engine() memo is the cache
    "builds": {},  # shard key -> times materialised in this worker
}


def _process_worker_init(handles: tuple[EngineHandle, ...], fault_rules: tuple = ()) -> None:
    """Pool initializer: install this generation's handles.

    ``fault_rules`` ships the active fault plan's task-side rules into
    the worker, where the parent's module global is invisible; the
    worker installs its own plan over them so ``run_wave_on_engine``'s
    single hook covers every backend.
    """
    _WORKER_STATE["handles"] = {handle.key: handle for handle in handles}
    _WORKER_STATE["builds"] = {}
    for handle in handles:
        # A forked worker receives the parent's handles unpickled, live
        # engines included: each worker builds its own from the parts.
        handle._engine = None
    if fault_rules:
        faults.install(faults.FaultPlan(fault_rules))
    else:
        faults.clear()


def _portable_error(error: Exception) -> Exception:
    """An exception guaranteed to survive pickling back to the parent."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickling failure downgrades
        return RemoteTaskError(f"{type(error).__name__}: {error}")


def _process_run_wave(task: WaveTask) -> list[TaskOutcome]:
    """Worker-side wave entry point (looks the engine up by shard key;
    a handle without a live engine builds one, counted in ``builds``)."""
    handle = _WORKER_STATE["handles"].get(task.shard)
    if handle is None:
        return task.failed(
            RemoteTaskError(
                f"shard {task.shard!r} is not registered in this worker; "
                f"known shards: {sorted(_WORKER_STATE['handles'])}"
            )
        )
    if handle._engine is None:
        builds = _WORKER_STATE["builds"]
        builds[task.shard] = builds.get(task.shard, 0) + 1
    outcomes = run_wave_on_engine(handle.engine(), task)
    for outcome in outcomes:
        if outcome.error is not None:
            outcome.error = _portable_error(outcome.error)
    return outcomes


def _process_apply_patches(patches: tuple) -> bool:
    """Worker-side live update: patch handles, dropping their engines
    (the next wave builds one over the new parts).

    Runs through the lane's ordinary FIFO queue, which is the epoch
    fence: tasks submitted before the patch see the old engines, tasks
    submitted after see the new ones, and nothing in between.
    """
    for patch in patches:
        handle = _WORKER_STATE["handles"].get(patch.key)
        if handle is not None:
            patch.apply_to(handle)
    return True


def _worker_introspect(_: int = 0) -> dict:
    """Worker-side counters for :meth:`ProcessBackend.worker_stats`."""
    return {
        "pid": os.getpid(),
        "builds": dict(_WORKER_STATE["builds"]),
        "resident": [
            key for key, handle in _WORKER_STATE["handles"].items() if handle._engine is not None
        ],
    }


def _worker_ping(_: int) -> bool:
    """No-op used by :meth:`ProcessBackend.warm_up`."""
    return True


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class ExecutionBackend(ABC):
    """Strategy for executing serving-layer work.

    The primitive is :meth:`submit_wave`; waves name their engine by
    shard key, so the engine must first be made known via
    :meth:`register`.  ``in_process`` backends run waves on the live
    registered engines; out-of-process backends run them on worker-side
    copies.
    """

    #: Stable name used by benchmarks, stats and ``backend_from_name``.
    name: str = "?"
    #: Whether waves run on the live engines, sharing parent memory (a
    #: caller's ``trace`` sink is only filled then).
    in_process: bool = True

    def __init__(self) -> None:
        self._handles: dict[str, EngineHandle] = {}
        self._depth_lock = threading.Lock()
        self._in_flight = 0
        self._peak_in_flight = 0

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

        Callers that retire an engine (e.g. a closed service) must
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

    # -- depth accounting ----------------------------------------------
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

    def _release_slot(self, _future: Future | None = None) -> None:
        with self._depth_lock:
            self._in_flight -= 1

    # -- submission ----------------------------------------------------
    @abstractmethod
    def _submit_wave(self, task: WaveTask) -> Future:
        """Backend-specific wave submission (no depth accounting)."""

    def submit_wave(self, task: WaveTask) -> Future:
        """Submit one wave, returning a ``Future[list[TaskOutcome]]``.

        One wave counts once in the depth however many queries it
        carries — waves are the coarser scheduling unit by design.  The
        future resolves to one outcome per member in order — query
        failures are *inside* the outcomes; the future itself only
        raises for submission-level faults (cancellation, a worker that
        died beyond retry), in which case the caller should resubmit the
        members as waves of one.
        """
        with self._depth_lock:
            self._in_flight += 1
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight
        try:
            future = self._submit_wave(task)
        except BaseException:
            self._release_slot()
            raise
        future.add_done_callback(self._release_slot)
        return future

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
    """Every wave inline, in the calling thread — the in-process backend.

    ``submit_wave`` executes the wave *during submission* on the live
    registered engine and returns an already-resolved future, so
    tracebacks point straight at the failing query.  Concurrent callers
    (the async front end's executor threads) each run their own waves.
    """

    name = "serial"
    in_process = True

    def _submit_wave(self, task: WaveTask) -> Future:
        future: Future = Future()
        handle = self._handles.get(task.shard)
        try:
            if handle is None:
                future.set_result(self._unregistered(task))
            else:
                future.set_result(run_wave_on_engine(handle.engine(), task))
        except BaseException as error:  # noqa: BLE001 - surfaces via future
            future.set_exception(error)
        return future


@dataclass
class _Lane:
    """One slot of a :class:`ProcessBackend`.

    A lane owns (at most) one single-process executor, whose FIFO queue
    is the epoch fence for live patches; ``pending`` counts waves
    dispatched to it and not yet resolved — the signal the router picks
    the least-loaded lane by.
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
    #: the worker has built, read by the hit/miss counters.
    seen: set = field(default_factory=set)
    #: Circuit-breaker state: consecutive dead-worker failures, the
    #: monotonic instant before which the breaker refuses traffic
    #: (0.0 = closed), and whether a half-open probe is in flight.
    failures: int = 0
    open_until: float = 0.0
    probing: bool = False


class ProcessBackend(ExecutionBackend):
    """Process fan-out over picklable shard handles.

    ``workers`` independent single-process **lanes** are created lazily;
    each lane's initializer installs every handle registered *so far*,
    so registering a new shard after a lane exists retires every lane
    (workers would not know the new key) and the next submission builds
    fresh ones.  Engines are materialised worker-side from pre-built
    parts — workers never repeat the tables/index pre-processing — and
    each stays on its worker's handle until a patch replaces its parts.

    **Routing** has one rule: a wave goes to the least-loaded lane
    (fewest unresolved waves) among those whose breaker admits traffic,
    ties to the lowest index.  A wave landing on a lane whose current
    worker already ran its shard is a *hit*, any other a *miss* (that
    worker builds the engine on demand).  A lane whose worker process
    died is detected at submission or completion, torn down, rebuilt,
    and the wave retried once (a ``dead_worker_fallbacks`` count).

    ``workers=None`` sizes the lane count to the machine.
    """

    name = "process"
    in_process = False

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise QueryError(f"process backend workers must be >= 1, got {workers}")
        if workers is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # non-Linux
                workers = os.cpu_count() or 1
        self._route_lock = threading.Lock()
        self._lanes = [_Lane(index=i) for i in range(workers)]
        self._pin_counters = {
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
    def _lane_executor_locked(self, lane: _Lane) -> ProcessPoolExecutor:
        if lane.executor is None:
            lane.executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_process_worker_init,
                initargs=(tuple(self._handles.values()), faults.worker_rules()),
            )
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
                if lane.failures >= BREAKER_THRESHOLD:
                    if lane.open_until == 0.0:
                        self._breaker_counters["opened"] += 1
                    lane.open_until = time.monotonic() + BREAKER_BACKOFF_SECONDS
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

    def _pick_lane_locked(self, shard: str) -> _Lane:
        """Pick the lane for one wave (caller holds the route lock): the
        least-loaded admitting lane, ties to the lowest index."""
        lanes = self._admitting_lanes_locked()
        if len(lanes) < len(self._lanes):
            self._breaker_counters["short_circuits"] += 1
        chosen = min(lanes, key=lambda lane: (lane.pending, lane.index))
        self._pin_counters["hits" if shard in chosen.seen else "misses"] += 1
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
        fence that keeps built engines for every unpatched shard.
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
            lane = self._pick_lane_locked(task.shard)
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

    # -- introspection -------------------------------------------------
    def pin_stats(self) -> dict[str, int]:
        """Parent-side lane counters: ``hits`` / ``misses`` (whether a
        wave's lane had already run its shard) and
        ``dead_worker_fallbacks`` (see class docstring)."""
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
        """Per-lane worker counters (pid, builds, resident engines) for
        every lane whose pool has been started.

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


def backend_from_name(name: str, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from its :attr:`~ExecutionBackend.name`.

    Recognised names: ``serial`` (``workers`` is ignored: waves run
    inline) and ``process`` (``workers`` lanes).  This is what the test
    suite and CI matrix use to honour the ``REPRO_BACKEND`` environment
    variable.
    """
    normalized = name.strip().lower()
    if normalized == "serial":
        return SerialBackend()
    if normalized == "process":
        return ProcessBackend(workers=workers)
    raise QueryError(f"unknown execution backend {name!r}; expected serial or process")
