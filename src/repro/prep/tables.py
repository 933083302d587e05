"""Pre-processed cost tables (Section 3.1 of the paper).

For every ordered node pair ``(vi, vj)`` the paper stores the scores of two
paths:

* ``tau_{i,j}``   — the path with the smallest **objective** score;
* ``sigma_{i,j}`` — the path with the smallest **budget** score,

each with *both* its objective score ``OS(.)`` and budget score ``BS(.)``.
Only these four numbers per pair are consulted by the search algorithms;
the predecessor matrices are kept (optionally) so that final routes can be
materialised (Algorithm 1 line 22 "obtain the route utilizing LL").

:class:`CostTables` is the flat O(V^2) realisation the paper uses, built
by the one Dijkstra sweep of :mod:`repro.prep.dijkstra` whatever the
graph's size (the paper's Floyd-Warshall is slower from ~20 nodes up).  The
partition-based variant sketched in the paper's future-work section lives
in :mod:`repro.prep.partition` and implements the same access protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.dijkstra import all_pairs_two_criteria, reconstruct_path, repair_all_pairs

__all__ = ["CostTables"]


@dataclass
class CostTables:
    """Dense all-pairs tables of ``tau`` / ``sigma`` scores.

    Attributes
    ----------
    os_tau, bs_tau:
        Objective and budget score of the objective-optimal path
        ``tau_{i,j}``, indexed ``[i, j]``; ``inf`` when unreachable.
    os_sigma, bs_sigma:
        Objective and budget score of the budget-optimal path
        ``sigma_{i,j}``.
    pred_tau, pred_sigma:
        Optional predecessor matrices for path materialisation: both
        ``(n, n)`` integer matrices, or both absent.
    """

    os_tau: np.ndarray
    bs_tau: np.ndarray
    os_sigma: np.ndarray
    bs_sigma: np.ndarray
    pred_tau: np.ndarray | None = None
    pred_sigma: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: SpatialKeywordGraph, predecessors: bool = True) -> "CostTables":
        """Compute the tables for *graph*: one sweep per path family."""
        os_tau, bs_tau, pred_tau = all_pairs_two_criteria(graph, "objective")
        bs_sigma, os_sigma, pred_sigma = all_pairs_two_criteria(graph, "budget")
        return cls(
            os_tau=os_tau,
            bs_tau=bs_tau,
            os_sigma=os_sigma,
            bs_sigma=bs_sigma,
            pred_tau=pred_tau if predecessors else None,
            pred_sigma=pred_sigma if predecessors else None,
        )

    def repaired(
        self, graph: SpatialKeywordGraph, changed: np.ndarray
    ) -> tuple["CostTables", tuple[int, int]]:
        """These tables after the edges *changed* were set or dropped.

        *graph* is the graph after the change.  Only the source rows the
        change can move are swept again (:func:`repro.prep.dijkstra.
        repair_two_criteria`), so the result is bitwise
        ``from_graph(graph)``; returned with the number of rows swept
        per family, ``(tau, sigma)``.  Needs the predecessor matrices.
        """
        self._require_paths()
        os_tau, bs_tau, pred_tau, tau_rows = repair_all_pairs(
            graph, (self.os_tau, self.bs_tau, self.pred_tau), changed, "objective"
        )
        bs_sigma, os_sigma, pred_sigma, sigma_rows = repair_all_pairs(
            graph, (self.bs_sigma, self.os_sigma, self.pred_sigma), changed, "budget"
        )
        tables = CostTables(
            os_tau=os_tau,
            bs_tau=bs_tau,
            os_sigma=os_sigma,
            bs_sigma=bs_sigma,
            pred_tau=pred_tau,
            pred_sigma=pred_sigma,
        )
        return tables, (len(tau_rows), len(sigma_rows))

    def __post_init__(self) -> None:
        n = self.os_tau.shape[0]
        if (self.pred_tau is None) != (self.pred_sigma is None):
            raise PrepError("pred_tau and pred_sigma must be given together or not at all")
        for name in ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma"):
            matrix = getattr(self, name)
            if matrix is None:
                continue
            if matrix.shape != (n, n):
                raise PrepError(f"{name} has shape {matrix.shape}, expected {(n, n)}")
            if name.startswith("pred") and not np.issubdtype(matrix.dtype, np.integer):
                raise PrepError(f"{name} has dtype {matrix.dtype}, expected an integer type")

    @property
    def num_nodes(self) -> int:
        """Number of nodes the tables were computed for."""
        return self.os_tau.shape[0]

    @property
    def has_paths(self) -> bool:
        """Whether predecessor matrices (hence path reconstruction) exist."""
        return self.pred_tau is not None

    # ------------------------------------------------------------------
    # access protocol shared with PartitionedCostTables
    # ------------------------------------------------------------------
    def os_tau_col(self, t: int) -> np.ndarray:
        """``OS(tau_{i,t})`` for all ``i`` — read-only view."""
        return self.os_tau[:, t]

    def bs_tau_col(self, t: int) -> np.ndarray:
        """``BS(tau_{i,t})`` for all ``i``."""
        return self.bs_tau[:, t]

    def os_sigma_col(self, t: int) -> np.ndarray:
        """``OS(sigma_{i,t})`` for all ``i``."""
        return self.os_sigma[:, t]

    def bs_sigma_col(self, t: int) -> np.ndarray:
        """``BS(sigma_{i,t})`` for all ``i``."""
        return self.bs_sigma[:, t]

    def bs_tau_entries(self, t: int) -> np.ndarray:
        """``BS(tau_{i,t})`` read per node (``entries[i]``): the column view.

        The partitioned tables assemble each entry read instead, for a
        search that reads a handful of a column it never needs whole.
        """
        return self.bs_tau[:, t]

    def os_sigma_entries(self, t: int) -> np.ndarray:
        """``OS(sigma_{i,t})`` read per node (``entries[i]``): the column view."""
        return self.os_sigma[:, t]

    def os_tau_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``OS(tau_{i,t})`` for all ``i`` and every ``t`` in *nodes*.

        The multi-column gather behind Strategy 2's detour screens; the
        partitioned tables assemble the same shape column by column.
        """
        return self.os_tau[:, nodes]

    def bs_sigma_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``BS(sigma_{i,t})`` for all ``i`` and every ``t`` in *nodes*."""
        return self.bs_sigma[:, nodes]

    def os_tau_row(self, i: int) -> np.ndarray:
        """``OS(tau_{i,j})`` for all ``j``."""
        return self.os_tau[i, :]

    def bs_tau_row(self, i: int) -> np.ndarray:
        """``BS(tau_{i,j})`` for all ``j``."""
        return self.bs_tau[i, :]

    def os_sigma_row(self, i: int) -> np.ndarray:
        """``OS(sigma_{i,j})`` for all ``j``."""
        return self.os_sigma[i, :]

    def bs_sigma_row(self, i: int) -> np.ndarray:
        """``BS(sigma_{i,j})`` for all ``j``."""
        return self.bs_sigma[i, :]

    def row_reader(self, nodes: np.ndarray, kind: str) -> "_RowReader":
        """The ``kind`` (``"tau"`` / ``"sigma"``) rows restricted to *nodes*.

        What a search reads per popped label: ``reader.primary(i)`` is
        ``OS(tau_{i,j})`` (tau) or ``BS(sigma_{i,j})`` (sigma) for every
        ``j`` in *nodes*, ``reader.secondary_at(i, position)`` the path's
        other score at ``nodes[position]``.  The partitioned tables
        assemble exactly those entries instead of a full row.
        """
        if kind == "tau":
            return _RowReader(self.os_tau, self.bs_tau, nodes)
        return _RowReader(self.bs_sigma, self.os_sigma, nodes)

    def reachable(self, i: int, j: int) -> bool:
        """Whether any path ``i -> j`` exists."""
        return bool(np.isfinite(self.os_tau[i, j]))

    def tau_path(self, i: int, j: int) -> list[int]:
        """Materialise the objective-optimal path ``i -> j`` as a node list."""
        self._require_paths()
        try:
            return reconstruct_path(self.pred_tau[i], i, j)  # type: ignore[index]
        except ValueError as exc:
            raise PrepError(str(exc)) from exc

    def sigma_path(self, i: int, j: int) -> list[int]:
        """Materialise the budget-optimal path ``i -> j`` as a node list."""
        self._require_paths()
        try:
            return reconstruct_path(self.pred_sigma[i], i, j)  # type: ignore[index]
        except ValueError as exc:
            raise PrepError(str(exc)) from exc

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raise :class:`PrepError` on violation.

        Invariants: zero diagonals; ``OS(tau) <= OS(sigma)`` (tau minimises
        the objective) and ``BS(sigma) <= BS(tau)`` wherever both exist; the
        two path families agree on reachability.
        """
        n = self.num_nodes
        diag = np.arange(n)
        for name in ("os_tau", "bs_tau", "os_sigma", "bs_sigma"):
            matrix = getattr(self, name)
            if not np.all(matrix[diag, diag] == 0.0):
                raise PrepError(f"{name} has a non-zero diagonal")
        finite = np.isfinite(self.os_tau)
        if not np.array_equal(finite, np.isfinite(self.os_sigma)):
            raise PrepError("tau and sigma disagree on reachability")
        if np.any(self.os_tau[finite] > self.os_sigma[finite] + 1e-9):
            raise PrepError("OS(tau) exceeds OS(sigma) somewhere: tau is not optimal")
        if np.any(self.bs_sigma[finite] > self.bs_tau[finite] + 1e-9):
            raise PrepError("BS(sigma) exceeds BS(tau) somewhere: sigma is not optimal")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the tables as a compressed numpy archive."""
        arrays = {
            "os_tau": self.os_tau,
            "bs_tau": self.bs_tau,
            "os_sigma": self.os_sigma,
            "bs_sigma": self.bs_sigma,
        }
        if self.pred_tau is not None:
            arrays["pred_tau"] = self.pred_tau
        if self.pred_sigma is not None:
            arrays["pred_sigma"] = self.pred_sigma
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "CostTables":
        """Load tables previously written by :meth:`save`."""
        try:
            data = np.load(path)
        except OSError as exc:
            raise PrepError(f"cannot read cost tables from {path}: {exc}") from exc
        missing = {"os_tau", "bs_tau", "os_sigma", "bs_sigma"} - set(data.files)
        if missing:
            raise PrepError(f"{path} misses arrays: {sorted(missing)}")
        return cls(
            os_tau=data["os_tau"],
            bs_tau=data["bs_tau"],
            os_sigma=data["os_sigma"],
            bs_sigma=data["bs_sigma"],
            pred_tau=data["pred_tau"] if "pred_tau" in data.files else None,
            pred_sigma=data["pred_sigma"] if "pred_sigma" in data.files else None,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_paths(self) -> None:
        if self.pred_tau is None:
            raise PrepError(
                "tables were built with predecessors=False; "
                "path materialisation is unavailable"
            )


class _RowReader:
    """Rows of one dense ``(primary, secondary)`` matrix pair at fixed nodes."""

    def __init__(self, primary: np.ndarray, secondary: np.ndarray, nodes: np.ndarray) -> None:
        self._primary = primary
        self._secondary = secondary
        self._nodes = nodes

    def primary(self, i: int) -> np.ndarray:
        """The primary score of row *i* at every node of the set."""
        # A row view, then one 1-D take: a third of the cost of the
        # mixed ``[i, nodes]`` form, which broadcasts ``i`` first.
        return self._primary[i][self._nodes]

    def secondary_at(self, i: int, position: int) -> float:
        """The secondary score of row *i* at ``nodes[position]``."""
        return float(self._secondary[i, self._nodes[position]])
