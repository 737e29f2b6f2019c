"""Spatial-computer cost simulator and locality-optimized tree algorithms.

Messages between grid processors cost their Manhattan distance (energy) and
one dependency level (depth).  Trees laid out in light-first order on a
space-filling curve support parent/child messaging in linear total energy,
which the treefix-sum and batched-LCA algorithms exploit.
"""

from .curves import CurveKind, curve_coords, zorder_longest_diagonal
from .layout import (Layout, build_baseline, build_light_first,
                     heaviest_last_is_optimal, light_first_layout,
                     light_first_positions, neighbor_distance_stats,
                     verify_light_first)
from .lca import PathDecomposition, batched_lca, path_decomposition, subtree_cover
from .listrank import list_rank, subtree_sizes_via_tour
from .rng import Lcg
from .sim import (CostReport, Placement, SimState, TraceEvent,
                  all_reduce_barrier, broadcast_range, compact, permute,
                  prefix_sum)
from .treefix import ContractionEngine, treefix_sum, treefix_topdown
from .trees import (RootedTree, gen_tree, lca_naive, root_path_sums, subtree_sizes,
                    subtree_sums)
from .virtual_tree import (VirtualTree, build_refs_protocol, local_broadcast,
                           local_reduce, transform)

__version__ = "0.1.0"
