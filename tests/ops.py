"""Op builders for the one update call, ``apply_ops(ops)``.

Each returns one ``kor.graph_update.v1`` op in the shape the wire parses
(:func:`repro.server.schema.parse_graph_update`): a weight that is not
set is left out rather than sent as ``None``.
"""

from __future__ import annotations


def recost(u: int, v: int, objective: float | None = None, budget: float | None = None) -> dict:
    """Re-cost edge ``(u, v)``; a weight left unset keeps its value."""
    op = {"op": "update_edge_cost", "u": u, "v": v}
    if objective is not None:
        op["objective"] = objective
    if budget is not None:
        op["budget"] = budget
    return op


def close(node: int) -> dict:
    """Take *node* out of service: its edges and keywords are stripped."""
    return {"op": "close_node", "node": node}


def reopen(node: int) -> dict:
    """Restore a closed node's latest edges and keywords."""
    return {"op": "open_node", "node": node}


def relabel(node: int, keywords: list[str]) -> dict:
    """Replace *node*'s keyword set."""
    return {"op": "update_keywords", "node": node, "keywords": keywords}
