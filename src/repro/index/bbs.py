"""Branch-and-Bound probabilistic skyline over a PR-tree (§6.2).

The local-skyline procedure of the paper adapts the BBS algorithm of
Papadias et al. to uncertain data: traverse the PR-tree in ascending
*mindist* order (here: minimum coordinate sum, which stays monotone for
dominance even when preferences map values negative) and prune any
subtree that provably contains no tuple whose skyline probability can
reach the threshold ``q``.

Pruning rule (generalising the paper's statement): for an intermediate
entry ``e`` and already-visited objects ``a`` that dominate *all* of
``e``'s MBR,

    upper bound on P_sky of anything in e  =  P2(e) × ∏ (1 − P(a))

because every tuple below ``e`` occurs with probability at most
``P2(e)`` and inherits every region-dominating object as a dominator.
If the bound falls below ``q`` the subtree is skipped.

Each test runs once, where it is cheapest:

* a node is tested against the pruner window when it is pushed and
  again when it is popped (pruners found in between can still cut it);
* a leaf entry enters the heap iff ``P(t) ≥ q`` — no window test yet;
* a dequeued object makes one pass over the window, folding
  ``P(t) × ∏ (1 − P(w))`` over the pruners that dominate it (stopping
  once the bound sinks below ``q``).  Only an object still at ``q`` or
  above pays for the exact §6.3 window query on the same tree, with
  early exit at ``q``.

"Visited" means dequeued: an object joins the window when it is
dequeued and no pruner dominates it (a dominated one adds nothing to
the dominance test by transitivity).  Dequeue order is ascending
coordinate sum, so a later object can dominate a window member only at
an equal float sum — and a dominated pruner is still a real dominator,
so every bound stays sound.

:func:`bbs_prob_skyline_progressive` yields qualified members as they
are discovered — ascending coordinate-sum order — which is the
progressive behaviour the paper inherits from BBS.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List

from ..core.dominance import dominates_point
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from .prtree import PRTree
from .rtree import IndexedItem, Node

__all__ = ["bbs_prob_skyline", "bbs_prob_skyline_progressive"]


def bbs_prob_skyline(tree: PRTree, threshold: float) -> ProbabilisticSkyline:
    """The qualified probabilistic skyline of everything stored in ``tree``."""
    members = list(bbs_prob_skyline_progressive(tree, threshold))
    return ProbabilisticSkyline(threshold, members)


def bbs_prob_skyline_progressive(
    tree: PRTree, threshold: float
) -> Iterator[SkylineMember]:
    """Yield qualified :class:`SkylineMember`s in discovery (mindist) order."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold q must be in (0, 1], got {threshold!r}")
    if tree.root.rect is None:
        return
    counter = itertools.count()
    heap: List = []
    heapq.heappush(
        heap, (tree.root.rect.min_coordinate_sum(), next(counter), tree.root)
    )
    pruners: List[IndexedItem] = []

    while heap:
        _, _, entry = heapq.heappop(heap)
        tree.node_accesses += 1
        if isinstance(entry, IndexedItem):
            # One pass over the window: the bound, and whether it joins.
            bound = entry.probability
            dominated = False
            point = entry.values
            for w in pruners:
                if dominates_point(w.values, point):
                    dominated = True
                    bound *= 1.0 - w.probability
                    if bound < threshold:
                        break
            if bound >= threshold:
                floor = threshold / entry.probability
                product = tree.dominators_product(
                    entry.payload, floor=floor, exclude_key=entry.key
                )
                if product >= floor:
                    yield SkylineMember(entry.payload, entry.probability * product)
            if not dominated:
                pruners.append(entry)
            continue
        node: Node = entry
        if _node_pruned(pruners, node, threshold):
            # Pruners that arrived after this node was pushed can now
            # disqualify the whole subtree without expanding it.
            continue
        if node.is_leaf:
            for item in node.entries:
                if item.probability >= threshold:
                    heapq.heappush(
                        heap, (float(sum(item.values)), next(counter), item)
                    )
            continue
        for child in node.entries:
            if not _node_pruned(pruners, child, threshold):
                heapq.heappush(
                    heap, (child.rect.min_coordinate_sum(), next(counter), child)
                )


def _node_pruned(pruners: List[IndexedItem], node: Node, threshold: float) -> bool:
    """True iff no tuple under ``node`` can reach the threshold."""
    bound = node.aggregate.p_max
    if bound < threshold:
        return True
    lower = node.rect.lower
    for w in pruners:
        # Dominating the lower corner is dominating the whole box: the
        # strict dimension stays strict against every box point.
        if dominates_point(w.values, lower):
            bound *= 1.0 - w.probability
            if bound < threshold:
                return True
    return False
