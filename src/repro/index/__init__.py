"""Spatial indexing substrate: the STR-packed PR-tree a site builds.

The Probabilistic R-tree (§6.1) is an R-tree, bulk-loaded by STR, whose
nodes keep existential-probability summaries that power the BBS-style
local skyline (§6.2) and the window-query probability probe (§6.3).
"""

from .bbs import bbs_prob_skyline, bbs_prob_skyline_progressive
from .bulk import str_bulk_load
from .geometry import Rect
from .prtree import PRTree, ProbAggregate
from .rtree import IndexedItem, Node, RTree

__all__ = [
    "Rect",
    "RTree",
    "Node",
    "IndexedItem",
    "PRTree",
    "ProbAggregate",
    "str_bulk_load",
    "bbs_prob_skyline",
    "bbs_prob_skyline_progressive",
]
