"""One construction story for the whole serving stack.

The three service tiers grew their own constructor-kwarg dialects:
cache bounds on both sync services, backend objects on both, partition
config only on the sharded one, micro-batching knobs only on the async
one.  :class:`ServiceConfig`
collects every knob in one frozen dataclass with the same defaults the
constructors use, and :func:`build_service` turns ``(world, config)``
into the right tier:

>>> from repro.service import ServiceConfig, build_service
>>> service = build_service(graph)                       # flat, defaults
>>> service = build_service(world, ServiceConfig(tier="sharded",
...                                              backend="process"))
>>> front = build_service(world, ServiceConfig(tier="async",
...                                            window_seconds=0.002))

The old constructors remain supported as thin entry points over the
same machinery — existing code keeps working — but new code should go
through the factory: it is the only spelling that picks the tier from
the *world* you hand it, resolves string backend names, and wires
lifecycle ownership (a factory-built backend is closed by the service's
``close()``; a backend object you pass in stays yours).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.engine import KOREngine
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.service.backends import (
    DEFAULT_WORKERS,
    ExecutionBackend,
    backend_from_name,
)
from repro.service.frontend import AsyncQueryService
from repro.service.service import QueryService
from repro.service.sharding import ShardedQueryService
from repro.world import MutableWorld

__all__ = ["ServiceConfig", "build_service"]

#: Accepted ``ServiceConfig.tier`` values.
TIERS = ("auto", "flat", "sharded", "async")


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving-stack knob, in one place, with the stack's defaults.

    Tier selection
    --------------
    ``tier="auto"`` (default) picks ``sharded`` when :func:`build_service`
    receives a :class:`~repro.world.MutableWorld` (or ``num_cells`` is
    set), ``flat`` otherwise.  ``"async"`` wraps that same auto-selected
    sync tier in an :class:`~repro.service.frontend.AsyncQueryService`.

    Execution
    ---------
    ``backend`` is a backend *name* (``"serial"``/``"process"``,
    resolved via :func:`~repro.service.backends.backend_from_name`;
    ``workers`` is the process lane count), an
    :class:`~repro.service.backends.ExecutionBackend` instance (shared,
    never closed by the service), or ``None`` for the sync tiers'
    default (a serial backend, owned and closed by the service).

    The remaining fields mirror the constructor parameters of the same
    name on the sync services (``cache_capacity``, ``num_cells``,
    ``seed``) and the async
    front end (``window_seconds`` through ``slo_seconds``).
    """

    tier: str = "auto"
    backend: str | ExecutionBackend | None = None
    workers: int = DEFAULT_WORKERS
    cache_capacity: int = 1024
    # sharded tier
    num_cells: int | None = None
    seed: int = 0
    # async front end
    window_seconds: float = 0.0
    max_batch: int = 64
    slo_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise QueryError(
                f"unknown service tier {self.tier!r}; expected one of "
                f"{', '.join(TIERS)}"
            )
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with *overrides* applied (unknown names rejected)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise QueryError(f"unknown ServiceConfig field(s): {', '.join(unknown)}")
        return replace(self, **overrides)


def _sync_tier(config: ServiceConfig, world) -> str:
    if config.tier in ("flat", "sharded"):
        return config.tier
    if isinstance(world, MutableWorld) or config.num_cells is not None:
        return "sharded"
    return "flat"


def build_service(
    world: MutableWorld | SpatialKeywordGraph | KOREngine,
    config: ServiceConfig | None = None,
    **overrides,
):
    """Build the serving tier *config* asks for over *world*.

    ``world`` may be a :class:`~repro.world.MutableWorld` (full live-
    mutation support, required for incremental repair on the sharded
    tier), a bare :class:`~repro.graph.digraph.SpatialKeywordGraph`
    (pre-processing happens here), or an already-built
    :class:`~repro.core.engine.KOREngine` (flat tier reuses it as-is;
    other tiers re-process its graph).  Keyword *overrides* are applied
    on top of *config* (itself defaulting to ``ServiceConfig()``), so
    quick call sites can skip the dataclass:
    ``build_service(graph, backend="process", workers=8)``.

    Returns a :class:`~repro.service.service.QueryService`,
    :class:`~repro.service.sharding.ShardedQueryService` or
    :class:`~repro.service.frontend.AsyncQueryService` per
    ``config.tier``.  A backend given by *name* is constructed here and
    owned by the returned service (its ``close()`` closes the backend);
    a backend instance is shared and left alone.
    """
    config = config if config is not None else ServiceConfig()
    if overrides:
        config = config.with_overrides(**overrides)

    backend = config.backend
    owns_backend = False
    if isinstance(backend, str):
        backend = backend_from_name(backend, workers=config.workers)
        owns_backend = True

    # Both tiers are one routed service over a world: a partitioned one
    # for "sharded", the one-cell world of an engine for "flat".
    graph = world if isinstance(world, SpatialKeywordGraph) else world.graph
    if _sync_tier(config, world) == "sharded":
        if not isinstance(world, MutableWorld):
            world = MutableWorld(graph, num_cells=config.num_cells, seed=config.seed)
        cls, served = ShardedQueryService, {"world": world}
    else:
        engine = world if isinstance(world, KOREngine) else KOREngine(graph)
        cls, served = QueryService, {"engine": engine}
    service = cls(**served, backend=backend, cache_capacity=config.cache_capacity)
    # The service normally only owns a backend it defaulted into
    # existence; a factory-built one has no other owner either.
    service._owns_backend |= owns_backend

    if config.tier == "async":
        return AsyncQueryService(
            service,
            window_seconds=config.window_seconds,
            max_batch=config.max_batch,
            close_service=True,
            slo_seconds=config.slo_seconds,
        )
    return service
