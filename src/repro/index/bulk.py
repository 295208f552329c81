"""Sort-Tile-Recursive (STR) bulk loading for the R-tree family.

Local sites index tens of thousands of tuples before the first query
runs, and one-at-a-time insertion is both slow and produces poorly
packed nodes.  STR packs near-full leaves tile by tile — sort on the
first dimension, slice into slabs, recurse on the next dimension inside
each slab — then packs each level of internal nodes the same way using
MBR centers, giving a tree with excellent query locality in ``O(n log
n)``.

The loader works *through* the tree instance's ``_refresh`` hook, so a
:class:`~repro.index.prtree.PRTree` bulk-loaded here gets its
probability aggregates for free, and the resulting structure satisfies
the exact invariants :meth:`RTree.check_invariants` verifies (every
chunking step distributes items evenly, so no node falls below the
minimum fill).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

from .rtree import IndexedItem, Node, RTree

__all__ = ["str_bulk_load", "even_chunks"]


def even_chunks(items: List, n_chunks: int) -> List[List]:
    """Split ``items`` into ``n_chunks`` contiguous chunks of near-equal size.

    Sizes differ by at most one, so for ``n_chunks = ceil(n /
    capacity)`` every chunk holds at least ``capacity / 2`` items —
    which is what keeps bulk-loaded nodes above the R-tree minimum
    fill.
    """
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    n = len(items)
    base, extra = divmod(n, n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return [c for c in chunks if c]


def _str_partition(
    items: List,
    capacity: int,
    dim: int,
    dimensionality: int,
    sort_key: Callable,
) -> List[List]:
    """Recursively tile ``items`` into groups of at most ``capacity``."""
    n_groups = math.ceil(len(items) / capacity)
    if n_groups <= 1:
        return [items]
    items = sorted(items, key=lambda it: sort_key(it)[dim])
    if dim >= dimensionality - 1:
        return even_chunks(items, n_groups)
    dims_left = dimensionality - dim
    n_slabs = math.ceil(n_groups ** (1.0 / dims_left))
    groups: List[List] = []
    for slab in even_chunks(items, n_slabs):
        groups.extend(_str_partition(slab, capacity, dim + 1, dimensionality, sort_key))
    return groups


def _node_center(node: Node) -> tuple:
    return tuple((lo + up) / 2.0 for lo, up in zip(node.rect.lower, node.rect.upper))


def str_bulk_load(tree: RTree, items: Sequence[IndexedItem]) -> RTree:
    """Populate an *empty* ``tree`` with ``items`` using STR packing.

    Mutates and returns ``tree``.  The tree instance supplies node
    capacity and the aggregate hooks; any :class:`RTree` subclass
    works.
    """
    if len(tree) != 0:
        raise ValueError("str_bulk_load requires an empty tree")
    items = list(items)
    if not items:
        return tree
    dimensionality = len(items[0].values)
    level: List = items
    is_leaf, sort_key = True, (lambda it: it.values)
    while is_leaf or len(level) > 1:
        nodes: List[Node] = []
        for group in _str_partition(level, tree.max_entries, 0, dimensionality, sort_key):
            node = Node(is_leaf=is_leaf)
            node.entries = list(group)
            tree._refresh(node)
            nodes.append(node)
        level, is_leaf, sort_key = nodes, False, _node_center
    tree.root = level[0]
    tree._size = len(items)
    return tree
