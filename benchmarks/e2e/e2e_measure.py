"""The closed loop, the noise-floor estimator and its calibration.

One client, one connection at a time, over a real socket.  A stream is
replayed for several passes from the same start state and request *i*'s
latency is its **minimum over the passes**: on a shared box interference
only ever adds time, so the minimum converges on what the code costs
while a median of passes keeps whatever the neighbours were doing.
Percentiles interpolate linearly over those per-request floors.

The floor removes interference that comes and goes within a run.  This
box also spends whole runs in a slower state (the same pure-Python loop
costs 14 ms or 19 ms for tens of seconds at a stretch, with no steal
time reported), and a floor taken inside such a stretch is simply
higher.  So between requests the loop also times a small fixed *probe*
— work that is none of the program's — and every reported time is scaled
by ``PROBE_REFERENCE_SECONDS / (the probe's own floor in this run)``:
times read as if the machine had run at the reference speed.
"""

from __future__ import annotations

import gc
import os
import resource
import time

import numpy

from repro.server import http_request

__all__ = [
    "pin_cpu",
    "probe",
    "machine_speed",
    "replay",
    "timed_passes",
    "floors",
    "percentile",
    "tail_percentile",
    "peak_rss_mb",
]

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90, 80, 75)
MIN_PASSES = 2
#: Connections one run may open to one server port: every request is a
#: fresh ``Connection: close`` socket that then sits in TIME_WAIT for
#: 60 s, and there are about 28 000 ephemeral ports.
CONNECTION_BUDGET = 20_000

#: The probe's floor on the box the committed baselines were taken on,
#: in its fast state.  Only a unit: it makes calibrated times read as
#: that box's milliseconds, and cancels out of every comparison.
PROBE_REFERENCE_SECONDS = 160e-6
#: The probe runs after a request once this long has passed since the
#: last one: a time-uniform sample of the machine's state that costs a
#: run about 4 % of its time whatever the requests' size.
PROBE_INTERVAL_SECONDS = 0.004
#: The probe's floor is this percentile of its samples, not their
#: minimum: request floors are minima of 10-20 samples, and over 20
#: recorded runs the 5th-15th percentiles tracked them best (spread
#: between runs 2-4 %, against 5-7 % uncalibrated and 4-6 % for the
#: minimum; the median over-corrects, 15-20 %).
PROBE_FLOOR_PERCENTILE = 10

_PROBE_TABLE = {key: key for key in range(64)}
_PROBE_ARRAY = numpy.arange(4096, dtype=numpy.float64)


def pin_cpu() -> dict:
    """Pin this process to one CPU; returns the choice for ``env``.

    Unpinned, the stdlib server's thread hand-offs migrate between cores
    and ``/query`` p50 wanders by 2x inside one process.  Worker lanes
    are forked later and inherit the mask: on the whole mask
    ``batch_waves`` repeated within 13 % on one seed, pinned within 3 %,
    at the same median (two lanes buy no overlap on a 2-vCPU box).
    """
    mask = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, mask[-1:])
    return {"affinity_mask": mask, "cpu_chosen": mask[-1]}


def probe() -> float:
    """Seconds one round of fixed work took: interpreter loop, dict
    look-ups and small numpy temporaries, the mix the serving stack is
    made of.  (A bare arithmetic loop tracked the workloads half as
    well: it never leaves the registers, they live in the caches.)"""
    begin = time.perf_counter()
    table, total = _PROBE_TABLE, 0
    for step in range(600):
        total += table[step & 63]
    for _ in range(12):
        scaled = _PROBE_ARRAY * 1.5 + 2.0
        scaled[scaled > 100.0].sum()
    return time.perf_counter() - begin


def machine_speed(probe_seconds: list[float]) -> float:
    """What to multiply this run's times by to read them at the
    reference machine speed (1.0 on the reference box, running fast)."""
    return PROBE_REFERENCE_SECONDS / percentile(probe_seconds, PROBE_FLOOR_PERCENTILE)


async def replay(address, requests, on_response, probe_seconds=None) -> list[float]:
    """Send *requests* one after another; seconds each took.

    ``on_response(position, request, response)`` and the calibration
    probe (appended to *probe_seconds* when given) run outside the clock.
    """
    host, port = address
    clock = time.perf_counter
    seconds = []
    probed = clock() - PROBE_INTERVAL_SECONDS  # every pass is probed at least once
    for position, request in enumerate(requests):
        begin = clock()
        response = await http_request(host, port, "POST", request.path, request.payload)
        end = clock()
        seconds.append(end - begin)
        if probe_seconds is not None and end - probed >= PROBE_INTERVAL_SECONDS:
            probe_seconds.append(probe())
            probed = clock()
        on_response(position, request, response)
    return seconds


async def timed_passes(address, requests, on_response, reset, budget_seconds, passes=None):
    """Replay until *budget_seconds* are spent (or exactly *passes* times).

    Returns ``(per-pass latency lists, probe seconds, per-pass wall
    seconds)``.  The stream's length is fixed; the budget only decides
    how many times it is replayed, so a slower build gets fewer passes,
    never less work per pass.
    """
    runs, probe_seconds, walls = [], [], []
    spent = 0.0
    # The warm-up pass and the traced replay open connections too.
    most = max(MIN_PASSES, CONNECTION_BUDGET // len(requests) - 3)
    while (
        len(runs) < passes
        if passes is not None
        else len(runs) < MIN_PASSES or (spent < budget_seconds and len(runs) < most)
    ):
        reset()
        gc.collect()
        begin = time.perf_counter()
        runs.append(await replay(address, requests, on_response, probe_seconds))
        walls.append(time.perf_counter() - begin)
        spent += walls[-1]
    return runs, probe_seconds, walls


def floors(runs: list[list[float]], keys: list | None = None) -> list[float]:
    """Per-request minimum over the passes.

    With *keys* (one per request), requests with equal keys share one
    floor: they are the same work in the same state.
    """
    floor = [min(samples) for samples in zip(*runs)]
    if keys is None:
        return floor
    shared: dict = {}
    for seconds, key in zip(floor, keys):
        shared[key] = min(seconds, shared.get(key, seconds))
    return [shared[key] for key in keys]


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile, linearly interpolated between ranks."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> int:
    """The highest candidate percentile with enough samples beyond it."""
    for q in TAIL_CANDIDATES:
        if count * (100 - q) / 100.0 >= TAIL_SAMPLES_BEYOND:
            return q
    return TAIL_CANDIDATES[-1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0
