"""Waves — a transport envelope over the scalar engine.

The serving stack aggregates queries that share ``(algorithm, params)``
into *waves*; :func:`run_wave` executes one wave on one engine.  A wave
buys exactly two things: the members' keywords are resolved through the
index **once** (one ``candidate_sets`` pass for the whole wave), and the
caller ships B queries in **one** submission — on a process pool one
pickle + IPC round trip instead of B.  The searches themselves run one
after another through :meth:`repro.core.engine.KOREngine.run`, the same
entry point a solo query takes, so a wave's results — routes, scores,
failure reasons and per-label statistics — are those of N solo runs by
construction.

The paper's label treatment (domination, bound, Strategy-1 jump,
Strategy-2 screen; Sec. 3.2, Defs. 7-8) is sequential in label order.
PRs 8 and 10 advanced a wave's searches in numpy lockstep instead; the
end-to-end benchmark measured that driver at 1.02x the loop below while
one lane round trip costs 0.22 ms per *wave*, so the lockstep driver was
deleted and the transport — the part that pays — is what remains.

Failures are contained per member: the fault-injection hook, an expired
deadline, an unbindable query or a search error poison only that
member's :class:`WaveOutcome`; the members before it keep their results
and the members after it still run.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KORQuery

__all__ = ["KernelContext", "run_wave"]


class KernelContext:
    """Attribute-only placeholder; nothing under ``src/`` reads it.

    It used to hold the lockstep driver's engine-scoped caches.  The only
    remaining constructor call is ``benchmarks/e2e/e2e_onion.py``, which
    builds ``KernelContext(engine.graph, engine.tables)`` and hands it to
    :func:`repro.service.backends.run_wave_on_engine`; the class goes
    when that benchmark drops the import.
    """

    def __init__(self, graph, tables) -> None:
        self.graph = graph
        self.tables = tables


class WaveOutcome(NamedTuple):
    """Per-member verdict of one wave (mirrors the backends'
    ``TaskOutcome`` without importing the service layer)."""

    result: object | None
    error: BaseException | None
    latency_seconds: float


def run_wave(
    engine,
    queries: Sequence[KORQuery],
    algorithm: str,
    params: dict | None = None,
    *,
    candidates: dict | None = None,
    deadline: Deadline | None = None,
    on_member: Callable[[int, KORQuery], None] | None = None,
) -> list[WaveOutcome]:
    """Run one wave of same-``(algorithm, params)`` queries on *engine*.

    Returns one :class:`WaveOutcome` per query, in order.  ``candidates``
    is a pre-resolved keyword map (see ``engine.candidate_sets``); left
    ``None`` it is resolved here, once, over the union of the members'
    keywords.  ``on_member(index, query)`` is the fault-injection hook,
    called before each member runs.

    A *deadline* is checked before each member starts and ticks inside
    its search loop, so expiry mid-wave fails the running member within
    a checkpoint stride and every later member immediately, while the
    members that already finished keep their results.
    """
    params = dict(params) if params else {}
    queries = list(queries)
    if candidates is None:
        candidates = engine.candidate_sets(
            {word for query in queries for word in query.keywords}
        )

    outcomes: list[WaveOutcome] = []
    for index, query in enumerate(queries):
        begin = time.perf_counter()
        try:
            if on_member is not None:
                on_member(index, query)
            if deadline is not None:
                deadline.check()
            binding = engine.bind(query, candidates=candidates)
            result = engine.run(
                query, algorithm=algorithm, binding=binding, deadline=deadline, **params
            )
        except Exception as exc:  # noqa: BLE001 - contained in the member's slot
            outcomes.append(WaveOutcome(None, exc, time.perf_counter() - begin))
        else:
            outcomes.append(WaveOutcome(result, None, time.perf_counter() - begin))
    return outcomes
