"""Exact zero-forcing and power-domination computations on small graphs."""

from .graph import Graph, bits, mask_of, k_subsets, is_path, is_tree, induces_connected
from .families import (
    canonical_graph,
    canonical_key,
    are_isomorphic,
    enumerate_connected,
    enumerate_trees,
    generate,
    parse_graph6,
    write_graph6,
)
from .propagation import (
    ForceLog,
    closure,
    closure_with_log,
    is_power_dominating_set,
    is_zero_forcing_set,
)
from .invariants import (
    ParamResult,
    domination_number,
    is_spider,
    path_cover_number,
    power_domination_number,
    spider_number,
    total_domination_number,
    zero_forcing_number,
)
from .structure import MinorWitness, has_minor, is_outerplanar, is_planar
from .products import amalgamate, cartesian_product, lexicographic_product
from .theorems import VerifyReport, verify, theorem_ids

__version__ = "0.1.0"
