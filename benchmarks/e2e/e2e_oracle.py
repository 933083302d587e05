"""Answer checking: schema, route re-walk, engine equality, exact optima.

Everything here runs outside every timer.  A 200 answer is accepted only
if it validates as ``kor.route_result.v1``, echoes the query it was
asked, and its route re-walks on the graph *at that epoch*: every hop is
an edge, the reported OS/BS equal the recomputed sums, and the
``covers_keywords`` / ``within_budget`` verdicts match what the walk
finds.  While the graph is in its start state the answer must also equal
a direct ``KOREngine.run`` on the flat workloads, and feeds the quality
numbers (``os_ratio``, ``infeasible_share``) against direct scalar
``exact`` runs.
"""

from __future__ import annotations

from repro.core.query import KORQuery
from repro.server import validate_route_result

__all__ = ["AnswerChecker", "direct_answer"]

SCORE_TOLERANCE = 1e-9


def direct_answer(engine, query: KORQuery, algorithm: str):
    """``(feasible, OS, BS, nodes)`` of a direct scalar engine run."""
    result = engine.run(query, algorithm)
    route = result.route
    if route is None:
        return (False, None, None, None)
    return (
        result.feasible,
        route.objective_score,
        route.budget_score,
        tuple(route.nodes),
    )


class AnswerChecker:
    """Checks every answer of a pass and keeps the quality tallies.

    ``engine`` is a flat engine over the start-state graph; with
    ``expect_equal`` its direct answers are the oracle (flat workloads),
    otherwise it only supplies ``exact`` optima (the sharded tier may
    return a different route of the same quality).  ``exact_one_in``
    thins the ``exact`` runs on large populations by a rule on the query
    itself, so every seed scores the same subset.
    """

    def __init__(self, engine, expect_equal: bool, exact_one_in: int = 1) -> None:
        self.engine = engine
        self._expect_equal = expect_equal
        self._exact_one_in = exact_one_in
        self._direct: dict[tuple, tuple] = {}
        self._exact: dict[KORQuery, float | None] = {}
        self.problems: list[str] = []
        self.failed = 0
        #: OS(answer) / OS(exact) per request feasible under both.
        self.ratios: list[float] = []
        self.exact_feasible = 0
        self.answered_infeasible = 0

    # ------------------------------------------------------------------
    def check(self, request, response, graph, start_state: bool) -> None:
        """Check one response; failures land in ``failed``/``problems``."""
        slots = max(1, len(request.specs))
        try:
            if response.status != 200:
                raise ValueError(f"status {response.status}: {response.body[:200]!r}")
            document = response.json()
            if request.kind == "update":
                if document.get("applied") != len(request.payload["ops"]):
                    raise ValueError(f"update not acknowledged: {document}")
                return
            if request.kind == "batch":
                answers = document["results"]
                if document["count"] != slots or len(answers) != slots:
                    raise ValueError(f"batch answered {len(answers)} of {slots} slots")
            else:
                answers = [document]
        except Exception as error:  # noqa: BLE001 - any malformed response fails
            self._fail(slots, f"{request.path}: {error}")
            return
        for (query, algorithm), answer in zip(request.specs, answers):
            try:
                self._check_answer(answer, query, algorithm, graph, start_state)
            except Exception as error:  # noqa: BLE001 - one slot, one failure
                self._fail(1, f"{algorithm} {query}: {error}")

    def _fail(self, slots: int, problem: str) -> None:
        self.failed += slots
        if len(self.problems) < 20:
            self.problems.append(problem)

    # ------------------------------------------------------------------
    def _check_answer(self, answer, query, algorithm, graph, start_state) -> None:
        if "error" in answer:
            raise ValueError(f"slot error {answer['error']}")
        validate_route_result(answer)
        echoed = answer["query"]
        if KORQuery(
            echoed["source"], echoed["target"], echoed["keywords"], echoed["budget_limit"]
        ) != query:
            raise ValueError(f"answer echoes another query: {echoed}")
        route = answer["route"]
        objective, budget = answer["score"]["objective"], answer["score"]["budget"]
        if route is not None:
            self._rewalk(answer, query, graph)
        if not start_state:
            return
        if self._expect_equal:
            expected = self._direct_answer(query, algorithm)
            got = (
                (answer["feasible"], objective, budget, tuple(route))
                if route is not None
                else (False, None, None, None)
            )
            if got != expected:
                raise ValueError(f"answer {got} != direct engine run {expected}")
        if (query.source + query.target) % self._exact_one_in:
            return
        optimum = self._exact_optimum(query)
        if optimum is None:
            return
        self.exact_feasible += 1
        if not answer["feasible"]:
            self.answered_infeasible += 1
            return
        if objective < optimum - SCORE_TOLERANCE:
            raise ValueError(f"OS {objective} beats the exact optimum {optimum}")
        self.ratios.append(objective / optimum if optimum > 0 else 1.0)

    def _rewalk(self, answer, query, graph) -> None:
        route = answer["route"]
        if route[0] != query.source or route[-1] != query.target:
            raise ValueError(f"route {route[0]}..{route[-1]} misses the endpoints")
        objective = budget = 0.0
        for u, v in zip(route, route[1:]):
            edge_objective, edge_budget = graph.edge(u, v)  # raises on a non-edge
            objective += edge_objective
            budget += edge_budget
        score = answer["score"]
        if (
            abs(objective - score["objective"]) > SCORE_TOLERANCE
            or abs(budget - score["budget"]) > SCORE_TOLERANCE
        ):
            raise ValueError(
                f"reported OS/BS {score} != re-walked ({objective}, {budget})"
            )
        wanted = {graph.keyword_table.get(word) for word in query.keywords}
        seen = set().union(*(graph.node_keywords(node) for node in route))
        if answer["covers_keywords"] != (None not in wanted and wanted <= seen):
            raise ValueError("covers_keywords disagrees with the re-walked route")
        if answer["within_budget"] != (budget <= query.budget_limit + SCORE_TOLERANCE):
            raise ValueError("within_budget disagrees with the re-walked route")

    # ------------------------------------------------------------------
    def _direct_answer(self, query, algorithm):
        key = (query, algorithm)
        if key not in self._direct:
            self._direct[key] = direct_answer(self.engine, query, algorithm)
        return self._direct[key]

    def _exact_optimum(self, query) -> float | None:
        if query not in self._exact:
            feasible, objective, _budget, _nodes = direct_answer(
                self.engine, query, "exact"
            )
            self._exact[query] = objective if feasible else None
        return self._exact[query]

    # ------------------------------------------------------------------
    @property
    def os_ratio(self) -> float:
        """Mean OS(answer)/OS(exact) over requests feasible under both."""
        return sum(self.ratios) / len(self.ratios) if self.ratios else 1.0

    @property
    def infeasible_share(self) -> float:
        """The paper's failure percentage: ``exact``-feasible requests
        answered infeasible."""
        if not self.exact_feasible:
            return 0.0
        return self.answered_infeasible / self.exact_feasible
