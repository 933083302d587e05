"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a seeded, schedulable list of :class:`FaultRule`
entries — *kill worker N at dispatch K*, *delay the first M tasks of a
shard*, *fail a task with an injected error*, *drop a lane* — installed
process-wide with :func:`install` / :func:`injected`.  The hooks sit on
the two choke points every backend shares:

* :func:`repro.service.backends.run_wave_on_engine` calls
  :meth:`FaultPlan.on_task` before running each wave member (covers the
  serial and thread backends in-process, and process-pool workers via
  rules shipped through the pool initializer);
* ``ProcessBackend._dispatch`` calls :meth:`FaultPlan.on_dispatch`
  after routing, parent-side — where a worker pid is known and can be
  SIGKILLed at an exact dispatch count.

**Zero overhead when off**: both hooks are a single module-global load
plus a ``None`` check; no plan installed means no extra work on the hot
path.  Rules fire on exact event counts (``after`` matching events skip,
then ``times`` firings), so a chaos run with a fixed plan and a fixed
workload replays the same fault schedule every time.

The chaos suites (`tests/service/test_chaos.py`) drive seeded plans
through the differential oracle: every response that *survives* a fault
plan must be byte-identical to the flat engine's answer — faults may
cost retries, degraded flags or errors, never silently-wrong routes.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import QueryError

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active",
    "clear",
    "corrupt_then_invalidate",
    "injected",
    "install",
]

#: Rule kinds applied task-side (inside ``run_wave_on_engine``).
TASK_KINDS = frozenset({"delay_task", "error_task"})
#: Rule kinds applied parent-side at dispatch (``ProcessBackend``).
DISPATCH_KINDS = frozenset({"kill_worker", "drop_lane"})


class FaultInjected(QueryError):
    """The error raised by an ``error_task`` rule (pickles cleanly)."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault.

    ``kind`` selects the mechanism:

    ``"delay_task"``
        Sleep ``seconds`` before running a matching task (slow shard /
        slow worker — the deadline-miss generator).
    ``"error_task"``
        Raise :class:`FaultInjected` instead of running a matching task.
    ``"kill_worker"``
        SIGKILL the worker process of the lane a matching task was just
        routed to (process backend only).
    ``"drop_lane"``
        Like ``kill_worker``, but keyed on the lane alone: every
        dispatch routed to lane ``lane`` kills its worker, until
        ``times`` runs out — the breaker-opening fault.

    ``shard`` (substring ``None`` = any) filters which tasks count as
    *matching events*; ``lane`` filters dispatch-side rules by lane
    index.  The first ``after`` matching events pass untouched, then the
    rule fires ``times`` times and goes dormant.
    """

    kind: str
    shard: str | None = None
    lane: int | None = None
    after: int = 0
    times: int = 1
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS | DISPATCH_KINDS:
            raise QueryError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(TASK_KINDS | DISPATCH_KINDS)}"
            )
        if self.after < 0 or self.times < 0 or self.seconds < 0:
            raise QueryError("fault rule counts and durations must be >= 0")


@dataclass
class _RuleState:
    """Mutable firing state of one rule (plan-local, lock-guarded)."""

    seen: int = 0
    fired: int = 0


class FaultPlan:
    """A set of rules plus their firing state and an event log."""

    def __init__(self, rules: tuple[FaultRule, ...] | list[FaultRule]) -> None:
        self.rules = tuple(rules)
        self._lock = threading.Lock()
        self._states = [_RuleState() for _ in self.rules]
        #: Human-readable record of every fault that actually fired —
        #: the chaos tests assert the plan executed as scheduled.
        self.log: list[str] = []

    def _claim(self, index: int) -> bool:
        """Count one matching event against rule *index*; True = fire now."""
        rule = self.rules[index]
        with self._lock:
            state = self._states[index]
            state.seen += 1
            if state.seen <= rule.after or state.fired >= rule.times:
                return False
            state.fired += 1
            return True

    def fired(self) -> dict[int, int]:
        """Firing count per rule index (only rules that fired)."""
        with self._lock:
            return {
                index: state.fired
                for index, state in enumerate(self._states)
                if state.fired
            }

    # -- hooks ----------------------------------------------------------
    def on_task(self, task) -> None:
        """Task-side hook: delay or fail a matching task."""
        for index, rule in enumerate(self.rules):
            if rule.kind not in TASK_KINDS:
                continue
            if rule.shard is not None and rule.shard not in task.shard:
                continue
            if not self._claim(index):
                continue
            if rule.kind == "delay_task":
                with self._lock:
                    self.log.append(f"delay_task {task.shard} {rule.seconds}s")
                time.sleep(rule.seconds)
            else:
                with self._lock:
                    self.log.append(f"error_task {task.shard}")
                raise FaultInjected(rule.message)

    def on_dispatch(self, lane_index: int, executor, task) -> None:
        """Parent-side hook: kill the routed lane's worker on schedule."""
        for index, rule in enumerate(self.rules):
            if rule.kind not in DISPATCH_KINDS:
                continue
            if rule.lane is not None and rule.lane != lane_index:
                continue
            if rule.shard is not None and rule.shard not in task.shard:
                continue
            if not self._claim(index):
                continue
            with self._lock:
                self.log.append(f"{rule.kind} lane={lane_index} shard={task.shard}")
            _kill_executor_workers(executor)

    def worker_rules(self) -> tuple[FaultRule, ...]:
        """The task-side rules, picklable for process-pool initializers.

        Worker-side firing state is per worker (each process counts its
        own matching events), which keeps the schedule deterministic for
        a fixed routing — the frozen rules themselves carry no state.
        """
        return tuple(rule for rule in self.rules if rule.kind in TASK_KINDS)


def _kill_executor_workers(executor) -> None:
    """SIGKILL every worker process of a ``ProcessPoolExecutor``.

    Pools spawn workers lazily on first submit, so a kill scheduled
    before the lane ever ran a task would find nothing to kill; a
    round-trip no-op spawns the worker first — the scheduled fault is
    real either way.
    """
    processes = getattr(executor, "_processes", None) or {}
    if not processes:
        with contextlib.suppress(Exception):
            executor.submit(os.getpid).result(timeout=60.0)
        processes = getattr(executor, "_processes", None) or {}
    for pid in list(processes):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# process-wide installation (the zero-overhead-when-off switch)
# ----------------------------------------------------------------------

#: The installed plan; hooks read this one global and bail on ``None``.
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install *plan* process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Remove the installed plan (hooks become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultPlan | None:
    """The installed plan, if any."""
    return _ACTIVE


def worker_rules() -> tuple[FaultRule, ...]:
    """Task-side rules of the active plan (what pool initializers ship)."""
    return _ACTIVE.worker_rules() if _ACTIVE is not None else ()


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Install *plan* for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ----------------------------------------------------------------------
# cache fault
# ----------------------------------------------------------------------


def corrupt_then_invalidate(cache, key, bogus) -> int:
    """Plant a corrupt entry under *key*, then invalidate the epoch.

    Models an engine swap racing a poisoned write: the bogus result is
    stored, the epoch bump wipes it, and any in-flight write that
    captured the old epoch is dropped on arrival — callers probing with
    the new epoch can never observe *bogus*.  Returns the new epoch.
    """
    cache.put(key, bogus)
    return cache.invalidate()
