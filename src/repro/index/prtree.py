"""The Probabilistic R-tree (PR-tree) of §6.1.

A PR-tree is an R-tree whose every entry additionally summarises the
existential probabilities beneath it: the paper stores ``P1`` (the
minimum occurrence probability in the subtree) and ``P2`` (the
maximum).  ``P2`` powers the BBS pruning rule of §6.2 — a subtree whose
most-probable tuple cannot reach the threshold holds no qualified
skyline — while the window query of §6.3 turns dominator sets into
probability products.

On top of the paper's ``(P1, P2)`` we optionally aggregate the
*non-occurrence product* ``∏ (1 − P)`` of each subtree.  A window query
for "product of non-occurrence over all tuples dominating ``b``" can
then consume whole subtrees that sit entirely inside the dominance
region in O(1) instead of walking their leaves — a strict optimization
of the paper's §6.3 procedure (toggleable via ``store_products`` and
ablated in ``benchmarks/test_ablation_prtree.py``).

All coordinates inside the tree are canonical min-space values; the
constructor takes the :class:`~repro.core.dominance.Preference` once
and projects every tuple on the way in, so MAX-direction and subspace
queries need no special handling anywhere in the index code.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Iterator, List, Optional, Sequence

from ..core.dominance import Preference, dominates_point
from ..core.tuples import UncertainTuple
from .bulk import str_bulk_load
from .rtree import IndexedItem, Node, RTree

__all__ = ["ProbAggregate", "PRTree"]


@dataclass
class ProbAggregate:
    """Per-node probability summary.

    ``p_min``/``p_max`` are the paper's ``P1``/``P2``.
    ``non_occurrence`` is ``∏ (1 − P(t))`` over the subtree (1.0 when
    product storage is disabled; consumers must then walk leaves).
    """

    count: int
    p_min: float
    p_max: float
    non_occurrence: float


class PRTree(RTree):
    """Probabilistic R-tree over uncertain tuples."""

    def __init__(
        self,
        preference: Optional[Preference] = None,
        max_entries: int = 16,
        min_entries: Optional[int] = None,
        store_products: bool = True,
    ) -> None:
        self.preference = preference
        self.store_products = store_products
        #: Heap entries BBS dequeues plus the nodes that window queries
        #: visit; reset freely — benchmarks use it to compare traversal
        #: work.
        self.node_accesses = 0
        super().__init__(max_entries=max_entries, min_entries=min_entries)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        tuples: Iterable[UncertainTuple],
        preference: Optional[Preference] = None,
        max_entries: int = 16,
        min_entries: Optional[int] = None,
        store_products: bool = True,
    ) -> "PRTree":
        """Bulk-load a PR-tree from uncertain tuples (STR packing)."""
        tree = cls(
            preference=preference,
            max_entries=max_entries,
            min_entries=min_entries,
            store_products=store_products,
        )
        items = [tree._item_for(t) for t in tuples]
        return str_bulk_load(tree, items)

    def _item_for(self, t: UncertainTuple) -> IndexedItem:
        values = (
            self.preference.project(t.values)
            if self.preference is not None
            else t.values
        )
        return IndexedItem(
            key=t.key, values=tuple(values), probability=t.probability, payload=t
        )

    def add(self, t: UncertainTuple) -> None:
        """Insert one uncertain tuple."""
        self.insert(self._item_for(t))

    def remove(self, t: UncertainTuple) -> bool:
        """Delete one uncertain tuple; True if it was present."""
        item = self._item_for(t)
        return self.delete(item.key, item.values)

    def tuples(self) -> Iterator[UncertainTuple]:
        """Iterate the stored uncertain tuples."""
        for item in self.items():
            yield item.payload

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def _aggregate_items(self, items: Sequence[IndexedItem]) -> ProbAggregate:
        if not items:
            return ProbAggregate(count=0, p_min=1.0, p_max=0.0, non_occurrence=1.0)
        p_min = min(it.probability for it in items)
        p_max = max(it.probability for it in items)
        product = 1.0
        if self.store_products:
            for it in items:
                product *= 1.0 - it.probability
        return ProbAggregate(
            count=len(items), p_min=p_min, p_max=p_max, non_occurrence=product
        )

    def _aggregate_children(self, children: Sequence[Node]) -> ProbAggregate:
        if not children:
            return ProbAggregate(count=0, p_min=1.0, p_max=0.0, non_occurrence=1.0)
        product = 1.0
        if self.store_products:
            for c in children:
                product *= c.aggregate.non_occurrence
        return ProbAggregate(
            count=sum(c.aggregate.count for c in children),
            p_min=min(c.aggregate.p_min for c in children),
            p_max=max(c.aggregate.p_max for c in children),
            non_occurrence=product,
        )

    def _assert_aggregate(self, actual: ProbAggregate, expected: ProbAggregate) -> None:
        assert actual.count == expected.count, (
            f"stale aggregate count: {actual.count} != {expected.count}"
        )
        if actual.count:
            assert abs(actual.p_min - expected.p_min) < 1e-12, "stale P1"
            assert abs(actual.p_max - expected.p_max) < 1e-12, "stale P2"
            if self.store_products:
                assert abs(actual.non_occurrence - expected.non_occurrence) < 1e-9, (
                    "stale non-occurrence product"
                )

    # ------------------------------------------------------------------
    # probability probes (§6.3 window query)
    # ------------------------------------------------------------------

    def dominators_product(
        self,
        target: UncertainTuple,
        floor: float = 0.0,
        exclude_key: Optional[int] = None,
    ) -> float:
        """``∏ (1 − P(t'))`` over stored tuples dominating ``target``.

        This is the §6.3 window query: the dominance region of the
        target (the box between the space origin and the target, in
        min-space) is traversed; subtrees entirely inside the region
        contribute their aggregated non-occurrence product, subtrees
        entirely outside are skipped, and boundary leaves are checked
        tuple by tuple.  ``floor`` allows early exit once the product
        provably sinks below a threshold (the returned partial product
        is an upper bound on the true value).

        ``exclude_key`` defaults to ``target.key`` so a tuple never
        dominates itself even when it is stored in this tree.
        """
        if exclude_key is None:
            exclude_key = target.key
        point = (
            self.preference.project(target.values)
            if self.preference is not None
            else tuple(target.values)
        )
        product = 1.0
        if self.root.rect is None:
            return product
        store_products = self.store_products
        accesses = 0
        stack: List[Node] = [self.root]
        while stack:
            node = stack.pop()
            accesses += 1
            rect = node.rect
            # Disjoint: some lower coordinate exceeds the target, so no
            # box point can be ≤ it everywhere.
            if rect is None or not all(map(le, rect.lower, point)):
                continue
            # A box whose upper corner dominates ``point`` lies inside
            # the *strict* dominance region: it is below ``point`` on
            # some dimension, so it cannot hold the target itself and
            # its whole product counts.
            if store_products and dominates_point(rect.upper, point):
                product *= node.aggregate.non_occurrence
            elif node.is_leaf:
                for item in node.entries:
                    if item.key != exclude_key and dominates_point(item.values, point):
                        product *= 1.0 - item.probability
                        if product < floor:
                            break
            else:
                stack.extend(node.entries)
            if product < floor:
                break
        self.node_accesses += accesses
        return product

    def dominators_products(
        self, targets: Sequence[UncertainTuple], floor: float = 0.0
    ) -> List[float]:
        """Batched §6.3 window query: one Eq.-9 product per target.

        The batch entry point the coordinator's batched FEEDBACK rounds
        use; each target gets the same traversal (and the same
        ``floor`` early-exit contract) as :meth:`dominators_product`.
        """
        return [self.dominators_product(t, floor=floor) for t in targets]

