"""Up-front validation of generator configs.

A generator checks its whole config before its first random draw, so a
bad knob fails as :class:`DatasetError` naming the knob — not as a numpy
``ValueError`` from deep inside a sampler, or not at all — and a valid
config's bit-generator stream is untouched.
"""

from __future__ import annotations

from repro.exceptions import DatasetError

__all__ = ["check_nonnegative", "check_probability", "check_range"]


def check_range(name: str, bounds: tuple[int, int], minimum: int) -> None:
    """*bounds* is an inclusive ``(low, high)`` with ``minimum <= low <= high``."""
    low, high = bounds
    if not minimum <= low <= high:
        raise DatasetError(
            f"{name} must be an inclusive range with {minimum} <= low <= high, got {bounds}"
        )


def check_probability(name: str, value: float) -> None:
    """*value* lies in ``[0, 1]`` (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise DatasetError(f"{name} must be a probability in [0, 1], got {value}")


def check_nonnegative(name: str, value: float) -> None:
    """*value* (a length or scale) is ``>= 0`` (NaN is not)."""
    if not value >= 0.0:
        raise DatasetError(f"{name} must be >= 0, got {value}")
