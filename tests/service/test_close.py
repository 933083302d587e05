"""``close()`` releases what a service serves, on every tier.

A closed service is often still referenced: by the server's front end
that wrapped it, or by a harness that closes one deployment and builds
the next before dropping the old one.  Closing therefore drops the
engine, the world and the backend handle, or the dead cost tables stay
resident beside the new ones.  Afterwards the accessors that read them
(and batches and updates) raise
:class:`~repro.exceptions.ServiceClosed`, a second ``close()`` is a
no-op, and the counters, the stats snapshot and the cache read what
they read before.
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from dataclasses import asdict

import pytest

from repro.core.query import KORQuery
from repro.exceptions import QueryError, ServiceClosed
from repro.graph.generators import figure_1_graph
from repro.server import http_request, serve
from repro.service import base, build_service

from tests.ops import recost

pytestmark = pytest.mark.timeout(120)

QUERY = KORQuery(0, 7, ("t1", "t2", "t3"), 8.0)
#: Tier name -> ``build_service`` overrides (the figure-1 graph).
TIERS = {
    "flat": {"tier": "flat"},
    "sharded-serial": {"tier": "sharded", "num_cells": 2},
    "sharded-process": {"tier": "sharded", "num_cells": 2, "backend": "process", "workers": 1},
}
#: What a closed service no longer answers; the flat tier has no world.
ACCESSORS = ("engine", "world", "graph", "partition")


def served(service) -> tuple[weakref.ref, weakref.ref]:
    """Weak references to the engine serving now and to its tables."""
    engine = service.engine
    return weakref.ref(engine), weakref.ref(engine.tables)


def counters(service) -> tuple:
    return service.snapshot(), asdict(service.cache.stats), len(service.cache), service.epoch


def assert_released(service, refs, before) -> None:
    """*service* is closed: its parts are gone and its counters stand."""
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    for name in ACCESSORS:
        if hasattr(type(service), name):
            with pytest.raises(ServiceClosed):
                getattr(service, name)
    with pytest.raises(ServiceClosed):
        service.execute([QUERY])
    with pytest.raises(ServiceClosed):
        service.apply_ops([recost(0, 3, objective=2.0)])
    service.close()  # a second close is a no-op
    assert counters(service) == before


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_close_drops_the_served_tables(tier):
    service = build_service(figure_1_graph(), **TIERS[tier])
    assert service.submit(QUERY).feasible
    assert service.submit(QUERY).feasible  # a cache hit
    refs = served(service)
    before = counters(service)
    service.close()
    assert_released(service, refs, before)


def test_closing_after_an_update_drops_the_repaired_tables():
    service = build_service(figure_1_graph(), tier="sharded", num_cells=2)
    service.apply_ops([recost(0, 3, objective=2.0)])
    assert service.submit(QUERY).feasible
    refs = served(service)
    before = counters(service)
    service.close()
    assert_released(service, refs, before)


def test_async_close_with_close_service_drops_the_tables():
    front = build_service(figure_1_graph(), tier="async")
    service = front.service

    async def run() -> tuple:
        assert (await front.submit(QUERY)).feasible
        before = counters(service)
        await front.close()
        return before

    refs = served(service)
    before = asyncio.run(run())
    assert_released(service, refs, before)


def test_closing_a_server_drops_the_tables():
    service = build_service(figure_1_graph())
    server = serve(service, close_service=True)
    payload = {
        "source": QUERY.source,
        "target": QUERY.target,
        "keywords": list(QUERY.keywords),
        "budget_limit": QUERY.budget_limit,
    }
    response = asyncio.run(http_request(*server.address, "POST", "/query", payload))
    assert response.status == 200 and response.json()["feasible"]
    refs = served(service)
    before = counters(service)
    server.close()
    assert_released(service, refs, before)


def test_a_close_during_a_batch_fails_its_slots_not_the_call(monkeypatch):
    """``execute`` reads the handle once: a ``close()`` from another
    thread after its check fails the slots with a ``QueryError`` from the
    backend, never with an ``AttributeError`` on the dropped handle."""
    service = build_service(figure_1_graph(), tier="flat")
    keys = base.batch_keys

    def closing_keys(*args, **kwargs):
        service.close()
        return keys(*args, **kwargs)

    monkeypatch.setattr(base, "batch_keys", closing_keys)
    report = service.execute([QUERY])
    assert isinstance(report.items[0].error, QueryError)
    assert "not registered" in str(report.items[0].error)
