"""The KOR engine — one-stop facade over the whole system.

Build it once per graph (pre-processing the tau/sigma tables and the
inverted index), then answer any number of KOR / KkR queries with any of
the paper's algorithms::

    engine = KOREngine(graph)
    result = engine.query(source=0, target=7, keywords=["pub", "mall"],
                          budget_limit=8.0, algorithm="bucketbound")
    if result.feasible:
        print(result.route.describe(graph))
"""

from __future__ import annotations

import inspect
import numbers
import typing
from typing import Callable, Iterable, Mapping

from repro.core.bruteforce import branch_and_bound, exhaustive_search
from repro.core.bucketbound import bucket_bound
from repro.core.greedy import greedy
from repro.core.osscaling import os_scaling
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KkRResult, KORResult
from repro.core.topk import bucket_bound_top_k, os_scaling_top_k
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["KOREngine", "ALGORITHMS", "WIRE_PARAMETERS", "check_parameters"]

#: The search behind each algorithm name :meth:`KOREngine.run` accepts.
_SEARCHES: dict[str, Callable] = {
    "osscaling": os_scaling,
    "bucketbound": bucket_bound,
    "greedy": greedy,
    "greedy2": greedy,
    "exact": branch_and_bound,
    "exhaustive": exhaustive_search,
}
#: ... and each one :meth:`KOREngine.top_k` accepts.
_TOP_K_SEARCHES: dict[str, Callable] = {
    "osscaling": os_scaling_top_k,
    "bucketbound": bucket_bound_top_k,
}

#: Names accepted by :meth:`KOREngine.query`.
ALGORITHMS = tuple(_SEARCHES)


def _accepted(function: Callable) -> dict[str, type]:
    """The parameters *function* takes by keyword -- every one with a
    default -- and the type a value must have: its default's, or for a
    ``None`` default the other member of its ``X | None`` annotation."""
    hints = typing.get_type_hints(function)
    accepted = {}
    for name, parameter in inspect.signature(function).parameters.items():
        if parameter.default is parameter.empty:
            continue
        if parameter.default is None:
            (kind,) = (arg for arg in typing.get_args(hints[name]) if arg is not type(None))
            accepted[name] = typing.get_origin(kind) or kind
        else:
            accepted[name] = type(parameter.default)
    return accepted


#: The parameters each search takes by keyword and the type of each.
_PARAMETERS = {
    search: _accepted(search) for search in (*_SEARCHES.values(), *_TOP_K_SEARCHES.values())
}

#: What a value of each JSON type must be: ``float`` takes any real
#: number, ``int`` any integer, but neither takes a ``bool``.
_ACCEPTS = {float: numbers.Real, int: numbers.Integral, bool: bool, str: str}

#: Per algorithm :meth:`KOREngine.run` accepts, the parameters a JSON
#: request may set: those whose default has one of the JSON types.
WIRE_PARAMETERS = {
    algorithm: {name: kind for name, kind in _PARAMETERS[search].items() if kind in _ACCEPTS}
    for algorithm, search in _SEARCHES.items()
}


def check_parameters(
    algorithm: str, params: Mapping, accepted: Mapping[str, type], hint: str = ""
) -> None:
    """Refuse with a :class:`QueryError` a name in *params* that *accepted*
    lacks (the message lists what it has, then *hint*) or a value its type
    refuses.  A JSON type refuses ``None`` too; any other type takes it."""
    unknown = sorted(params.keys() - accepted.keys())
    if unknown:
        raise QueryError(
            f"algorithm {algorithm!r} takes no parameter {unknown[0]!r}; "
            f"it accepts {', '.join(sorted(accepted))}{hint}"
        )
    for name, value in params.items():
        kind = accepted[name]
        if kind in _ACCEPTS:
            refused = not isinstance(value, _ACCEPTS[kind]) or (
                isinstance(value, bool) and kind is not bool
            )
        else:
            refused = value is not None and not isinstance(value, kind)
        if refused:
            raise QueryError(
                f"algorithm {algorithm!r} parameter {name!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )


def _search_for(searches: dict[str, Callable], algorithm: str, params: dict) -> Callable:
    """The search *algorithm* names in *searches*, refused before it starts
    when the name is unknown, *params* carries a parameter the search does
    not take or a value of the wrong type, or the caller's deadline has
    already expired."""
    search = searches.get(algorithm)
    if search is None:
        raise QueryError(f"unknown algorithm {algorithm!r}; expected one of {', '.join(searches)}")
    check_parameters(algorithm, params, _PARAMETERS[search])
    deadline = params.get("deadline")
    if deadline is not None:
        # Refuse to start a search whose caller already gave up.
        deadline.check()
    return search


class KOREngine:
    """Pre-processed graph + dispatch to every algorithm in the paper."""

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables | None = None,
        index: InvertedIndex | None = None,
        predecessors: bool = True,
    ) -> None:
        if tables is None:
            tables = CostTables.from_graph(graph, predecessors=predecessors)
        elif tables.num_nodes != graph.num_nodes:
            raise QueryError(
                f"tables cover {tables.num_nodes} nodes but the graph has {graph.num_nodes}"
            )
        if index is None:
            index = InvertedIndex.from_graph(graph)
        elif index.vocabulary.num_nodes != graph.num_nodes:
            raise QueryError(
                f"index covers {index.vocabulary.num_nodes} nodes "
                f"but the graph has {graph.num_nodes}"
            )
        self._graph = graph
        self._tables = tables
        self._index = index

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SpatialKeywordGraph:
        """The underlying spatial-keyword graph."""
        return self._graph

    @property
    def tables(self) -> CostTables:
        """The pre-processed tau/sigma cost tables."""
        return self._tables

    @property
    def index(self) -> InvertedIndex:
        """The inverted keyword index."""
        return self._index

    # ------------------------------------------------------------------
    # reusable query context
    # ------------------------------------------------------------------
    def candidate_sets(self, keywords: Iterable[str]) -> dict[int, "object"]:
        """Per-keyword candidate node sets for *keywords*, fetched once.

        Resolves each distinct keyword through the graph's keyword table
        and the inverted index (words absent from the vocabulary are
        skipped — binding treats them as empty).  The returned map feeds
        :meth:`bind`'s ``candidates`` argument, letting a batch of queries
        that share keywords pay for each posting lookup exactly once.
        """
        ids = [
            kid
            for kid in (self._graph.keyword_table.get(word) for word in keywords)
            if kid is not None
        ]
        return self._index.candidate_sets(ids)

    def bind(self, query: KORQuery, candidates: dict | None = None) -> QueryBinding:
        """Build the reusable per-query context (validates endpoints).

        The returned :class:`QueryBinding` is read-only and can be handed
        to :meth:`run` (``binding=``) any number of times, including from
        concurrent threads.
        """
        return QueryBinding.bind(self._graph, self._index, query, candidates=candidates)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        algorithm: str = "bucketbound",
        **params,
    ) -> KORResult:
        """Answer one KOR query.

        ``algorithm`` is one of :data:`ALGORITHMS`; ``params`` are passed
        through (``epsilon``, ``beta``, ``alpha``, ``width``, ``mode``,
        ``use_strategy1``, ``use_strategy2``, ``trace``...).
        """
        query = KORQuery(source, target, tuple(keywords), budget_limit)
        return self.run(query, algorithm=algorithm, **params)

    def run(self, query: KORQuery, algorithm: str = "bucketbound", **params) -> KORResult:
        """Answer a pre-built :class:`KORQuery`.

        ``params`` may carry ``binding=`` (a context from :meth:`bind`) or
        ``candidates=`` (a map from :meth:`candidate_sets`); either skips
        the per-query index lookups — the serving layer's batch path.  A
        parameter the algorithm does not take is refused with a
        :class:`QueryError` that lists the ones it does, and so is a value
        its default's type refuses (``epsilon="x"``, ``width=2.5``) or, for
        a ``None`` default, its annotation's (``trace=1``, ``candidates=1``).
        """
        graph, tables, index = self._graph, self._tables, self._index
        candidates = params.pop("candidates", None)
        check_parameters(algorithm, {"candidates": candidates}, _BIND_PARAMETERS)
        search = _search_for(_SEARCHES, algorithm, params)
        if candidates is not None and params.get("binding") is None:
            params["binding"] = self.bind(query, candidates=candidates)
        if algorithm == "greedy2":
            params.setdefault("width", 2)
        if search is exhaustive_search:
            return exhaustive_search(graph, index, query, **params)
        return search(graph, tables, index, query, **params)

    def top_k(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        k: int,
        algorithm: str = "bucketbound",
        **params,
    ) -> KkRResult:
        """Answer one KkR (top-k) query with either approximation algorithm.

        ``params`` may carry ``deadline=``; like :meth:`run`, an already
        expired one refuses the search before it starts, and so does a
        parameter the algorithm does not take.
        """
        query = KORQuery(source, target, tuple(keywords), budget_limit)
        search = _search_for(_TOP_K_SEARCHES, algorithm, params)
        return search(self._graph, self._tables, self._index, query, k, **params)


#: What :meth:`KOREngine.run` hands on to :meth:`KOREngine.bind`.
_BIND_PARAMETERS = _accepted(KOREngine.bind)
