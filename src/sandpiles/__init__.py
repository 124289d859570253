"""Exact computations for sandpile groups on grid graphs.

The package computes recurrent configurations, symmetric recurrents,
identity elements, and element orders for sandpile grid graphs, and
cross-verifies the counts against domino-tiling numbers and
Chebyshev/trigonometric product formulas (`checks`).  All arithmetic is exact
(Python integers): the closed-form products are evaluated as integer
resultants, with no floating point anywhere.
"""

from .errors import SizeCapError, PrecisionError, SymmetryError
from .linalg import det_int, leading_minors, solve_int
from .graphs import (
    SandpileGraph,
    MatchGraph,
    grid_sandpile,
    p_graph,
    board_graph,
    reduced_laplacian,
)
from .engine import (
    stabilize,
    is_recurrent,
    stable_add,
    identity_config,
    enumerate_recurrents,
    config_order,
    burning_config,
    max_stable,
)
from .symmetry import (
    GroupAction,
    klein_action,
    dihedral_action,
    grid_fold,
    d_family,
    symmetrized_laplacian,
    symmetric_config_order,
    symmetric_identity,
    enumerate_symmetric_recurrents,
    fold,
    unfold,
)
from .formulas import (
    block_tridiag_det,
    closed_form_count,
    lu_wu_count,
)
from .tilings import (
    count_matchings,
    enumerate_matchings,
    a_seq,
    a_seq_upto,
    pn_embed,
    distance_config,
    diagonal_config,
)
from .temperley import enumerate_spanning_trees, spanning_tree_weight_sum

__all__ = [name for name in dir() if not name.startswith("_")]
