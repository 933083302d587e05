"""Pre-processing substrate: all-pairs tau/sigma tables (paper Section 3.1).

Every table — a flat graph's, a cell's, the border overlay's — comes from
one builder, the Dijkstra + pointer-doubling sweep of
:mod:`repro.prep.dijkstra`.
"""

from repro.prep.dijkstra import (
    NO_PREDECESSOR,
    all_pairs_two_criteria,
    multi_source_two_criteria,
    reconstruct_path,
    single_source_two_criteria,
)
from repro.prep.tables import CostTables

__all__ = [
    "CostTables",
    "NO_PREDECESSOR",
    "all_pairs_two_criteria",
    "multi_source_two_criteria",
    "reconstruct_path",
    "single_source_two_criteria",
]
