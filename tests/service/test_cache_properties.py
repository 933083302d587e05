"""Property-based tests of cache-key canonicalization and eviction.

The contract (tests drive :func:`repro.service.canonical_cache_key` and
:class:`repro.service.ResultCache`):

* keyword **order** and **duplicates** never change the key — any
  permutation-with-repetition of the same keyword set canonicalizes
  identically;
* everything that can change the answer — source, target, budget,
  algorithm, parameter values — always changes the key (no collisions);
* capacity eviction: the entry count never exceeds ``capacity`` after
  any operation sequence, and eviction is LRU.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.service import ResultCache, canonical_cache_key

from tests.strategies import KEYWORD_POOL, graph_and_query

LENIENT = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

keyword_sets = st.lists(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=4, unique=True)


@st.composite
def shuffled_with_duplicates(draw, base):
    """A reordering of *base* with some keywords repeated."""
    words = list(base)
    extras = draw(st.lists(st.sampled_from(words), min_size=0, max_size=3))
    combined = words + extras
    permutation = draw(st.permutations(combined))
    return tuple(permutation)


class TestOrderAndDuplicateInvariance:
    @LENIENT
    @given(st.data(), keyword_sets)
    def test_any_reordering_with_duplicates_gives_same_key(self, data, base):
        variant_a = data.draw(shuffled_with_duplicates(base))
        variant_b = data.draw(shuffled_with_duplicates(base))
        key_a = canonical_cache_key(KORQuery(0, 1, variant_a, 4.0), "bucketbound")
        key_b = canonical_cache_key(KORQuery(0, 1, variant_b, 4.0), "bucketbound")
        assert key_a == key_b

    @LENIENT
    @given(graph_and_query(), st.data())
    def test_reordering_real_instances(self, instance, data):
        """Same invariance on queries drawn against real random graphs."""
        _graph, source, target, keywords, delta = instance
        if not keywords:
            return
        shuffled = data.draw(st.permutations(list(keywords)))
        original = KORQuery(source, target, keywords, delta)
        reordered = KORQuery(source, target, tuple(shuffled), delta)
        assert canonical_cache_key(original, "osscaling") == canonical_cache_key(
            reordered, "osscaling"
        )


class TestNoCollisions:
    @LENIENT
    @given(
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(0, 50),
        keyword_sets,
    )
    def test_distinct_endpoints_never_collide(self, s1, t1, s2, t2, words):
        if (s1, t1) == (s2, t2):
            return
        key1 = canonical_cache_key(KORQuery(s1, t1, words, 4.0), "bucketbound")
        key2 = canonical_cache_key(KORQuery(s2, t2, words, 4.0), "bucketbound")
        assert key1 != key2

    @LENIENT
    @given(
        st.floats(0.5, 100.0, allow_nan=False),
        st.floats(0.5, 100.0, allow_nan=False),
        keyword_sets,
    )
    def test_distinct_budgets_never_collide(self, d1, d2, words):
        if d1 == d2:
            return
        key1 = canonical_cache_key(KORQuery(0, 1, words, d1), "bucketbound")
        key2 = canonical_cache_key(KORQuery(0, 1, words, d2), "bucketbound")
        assert key1 != key2

    @LENIENT
    @given(keyword_sets, keyword_sets)
    def test_distinct_keyword_sets_never_collide(self, words1, words2):
        if set(words1) == set(words2):
            return
        key1 = canonical_cache_key(KORQuery(0, 1, words1, 4.0), "bucketbound")
        key2 = canonical_cache_key(KORQuery(0, 1, words2, 4.0), "bucketbound")
        assert key1 != key2

    def test_algorithm_and_params_separate_entries(self):
        query = KORQuery(0, 1, ("pub",), 4.0)
        keys = {
            canonical_cache_key(query, "osscaling"),
            canonical_cache_key(query, "bucketbound"),
            canonical_cache_key(query, "osscaling", {"epsilon": 0.1}),
            canonical_cache_key(query, "osscaling", {"epsilon": 0.5}),
            canonical_cache_key(query, "bucketbound", {"epsilon": 0.5, "beta": 1.2}),
            canonical_cache_key(query, "bucketbound", {"epsilon": 0.5, "beta": 2.0}),
        }
        assert len(keys) == 6

    def test_unhashable_params_are_rejected(self):
        query = KORQuery(0, 1, ("pub",), 4.0)
        try:
            canonical_cache_key(query, "bucketbound", {"weird": []})
        except QueryError:
            return
        raise AssertionError("expected QueryError for unhashable parameter")


# ----------------------------------------------------------------------
# capacity eviction
# ----------------------------------------------------------------------


def make_result(route_nodes: int) -> KORResult:
    """A synthetic result whose route has *route_nodes* nodes."""
    route = (
        Route(
            nodes=tuple(range(route_nodes)),
            objective_score=float(route_nodes),
            budget_score=float(route_nodes),
        )
        if route_nodes > 0
        else None
    )
    return KORResult(
        query=KORQuery(0, 1, ("pub",), 4.0),
        algorithm="bucketbound",
        route=route,
        covers_keywords=route is not None,
        within_budget=route is not None,
        failure_reason=None if route is not None else "synthetic: no route",
    )


#: An op is (key, route_size) for put, or (key, None) for get.
cache_ops = st.lists(
    st.tuples(st.integers(0, 7), st.one_of(st.none(), st.integers(0, 9))),
    min_size=0,
    max_size=40,
)


class TestCapacityEviction:
    @LENIENT
    @given(st.integers(1, 6), cache_ops)
    def test_capacity_holds_after_any_op_sequence(self, capacity, ops):
        cache = ResultCache(capacity)
        for key, size in ops:
            if size is None:
                cache.get(key)
            else:
                cache.put(key, make_result(size))
            assert len(cache) <= capacity

    @LENIENT
    @given(cache_ops)
    def test_cache_below_capacity_never_evicts(self, ops):
        cache = ResultCache(capacity=64)
        stored: dict = {}
        for key, size in ops:
            if size is None:
                continue
            cache.put(key, make_result(size))
            stored[key] = size
        assert len(cache) == len(stored)
        assert cache.stats.evictions == 0

    def test_replacing_a_key_keeps_one_entry(self):
        cache = ResultCache(8)
        cache.put("k", make_result(9))
        cache.put("k", make_result(3))
        assert len(cache) == 1
        assert len(cache.get("k").route.nodes) == 3

    def test_eviction_is_lru_under_capacity_pressure(self):
        cache = ResultCache(2)
        cache.put("a", make_result(4))
        cache.put("b", make_result(4))
        cache.get("a")  # refresh: b is now the LRU entry
        cache.put("c", make_result(4))  # 3 > 2 -> evict b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1
