"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or malformed graph input."""


class QueryError(ReproError):
    """Raised for invalid KOR/KkR queries (unknown nodes, empty keywords...)."""


class DeadlineExceeded(QueryError):
    """Raised when a query's deadline expires mid-search.

    Search loops check their :class:`repro.core.deadline.Deadline` at a
    periodic checkpoint, so a request whose caller gave up stops within
    a bounded number of loop iterations instead of running to
    completion.  The HTTP tier maps this to 504.
    """


class ServiceClosed(QueryError):
    """Raised for work submitted to (or still queued in) a closed service.

    Distinct from a timeout: the service is shutting down and the
    request was never dispatched, so retrying against another instance
    is safe.  The HTTP tier maps this to 503.
    """


class PrepError(ReproError):
    """Raised when pre-processing tables are missing, stale, or inconsistent."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators for invalid parameters."""
