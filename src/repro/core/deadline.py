"""Per-request deadlines with cooperative mid-search cancellation.

A :class:`Deadline` is an absolute expiry instant on the monotonic
clock.  It travels out-of-band next to a query — never inside the
algorithm ``params``, so cache keys, flight coalescing and wave grouping
are untouched — from the HTTP tier down into the engine, where the
search loops call :meth:`Deadline.tick` once per iteration.  ``tick``
amortises the clock read over ``tick_stride`` calls, so the checkpoint
costs one integer increment per loop iteration when the deadline is far
away, and the loop stops within ``tick_stride`` iterations of expiry.

``time.monotonic`` is system-wide on every platform supported here
(Linux always; all platforms since CPython 3.10), so an absolute expiry
pickles safely across the process-pool boundary on the same host —
worker-side checks observe the same clock the front-end armed.
"""

from __future__ import annotations

import time

from repro.exceptions import DeadlineExceeded

__all__ = ["Deadline"]

#: How many :meth:`Deadline.tick` calls elapse between clock reads.
#: Search-loop iterations are microseconds; 32 of them bound the
#: cancellation latency far below any meaningful deadline while keeping
#: the per-iteration cost to an integer increment.
DEFAULT_TICK_STRIDE = 32


class Deadline:
    """An absolute monotonic-clock expiry for one request.

    Instances deliberately keep identity semantics (no ``__eq__`` /
    ``__hash__`` override): a frozen :class:`WaveTask` carrying one
    stays hashable, and two deadlines are never interchangeable anyway.
    """

    __slots__ = ("expires_at", "_stride", "_tick")

    def __init__(self, expires_at: float, tick_stride: int = DEFAULT_TICK_STRIDE) -> None:
        if tick_stride < 1:
            raise ValueError(f"tick_stride must be >= 1, got {tick_stride}")
        self.expires_at = float(expires_at)
        self._stride = int(tick_stride)
        self._tick = 0

    @classmethod
    def after(cls, seconds: float, tick_stride: int = DEFAULT_TICK_STRIDE) -> "Deadline":
        """A deadline *seconds* from now."""
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        return cls(time.monotonic() + float(seconds), tick_stride=tick_stride)

    @staticmethod
    def latest(a: "Deadline | None", b: "Deadline | None") -> "Deadline | None":
        """The looser of two deadlines; ``None`` (unbounded) wins outright.

        Used when coalesced awaiters share one flight: the flight may
        only be cancelled once *every* awaiter's deadline has passed.
        """
        if a is None or b is None:
            return None
        return a if a.expires_at >= b.expires_at else b

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the expiry instant has passed."""
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if expired (always reads the clock)."""
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(f"deadline exceeded by {-self.remaining():.4g}s")

    def tick(self) -> None:
        """The search-loop checkpoint: check the clock every ``tick_stride`` calls."""
        self._tick += 1
        if self._tick >= self._stride:
            self._tick = 0
            self.check()

    # Pickling ships the absolute expiry across the process boundary;
    # the tick counter restarts, which only makes the first worker-side
    # check slightly earlier.
    def __getstate__(self) -> tuple[float, int]:
        return (self.expires_at, self._stride)

    def __setstate__(self, state: tuple[float, int]) -> None:
        self.expires_at, self._stride = state
        self._tick = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.4g}s)"
