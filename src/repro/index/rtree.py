"""A Guttman R-tree with pluggable per-node aggregates.

This is the spatial substrate underneath the paper's Probabilistic
R-tree (§6.1): dynamic insertion with quadratic split, deletion with
subtree condensation and reinsertion, window search, and — the part
the PR-tree builds on — an *aggregate* computed for every node from
its children and kept consistent through every structural change.

The base tree's aggregate is a plain item count.  Subclasses override
:meth:`RTree._aggregate_items` / :meth:`RTree._aggregate_children`
to fold in whatever summary they need (the PR-tree adds the min/max
existential probabilities ``P1``/``P2`` and a non-occurrence product).
Aggregates are recomputed bottom-up along exactly the paths a mutation
touches, so they are always exact — :meth:`RTree.check_invariants`
re-derives everything from scratch and is run by the test suite after
randomized workloads.

Items are anything exposing ``.values`` (a point in canonical
min-space) and ``.key`` (unique id); the library uses
:class:`IndexedItem`, which also carries the existential probability
and the original :class:`~repro.core.tuples.UncertainTuple`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .geometry import Rect

__all__ = ["IndexedItem", "Node", "RTree", "NodeAggregate"]


@dataclass(frozen=True)
class IndexedItem:
    """A point entry stored in the tree.

    ``values`` are canonical min-space coordinates (preference already
    applied); ``payload`` keeps the original tuple so query answers can
    be mapped back without a side lookup.
    """

    key: int
    values: Tuple[float, ...]
    probability: float
    payload: Any = None

    def rect(self) -> Rect:
        return Rect.from_point(self.values)


@dataclass
class NodeAggregate:
    """The base aggregate: how many items live under a node."""

    count: int = 0


class Node:
    """One R-tree node; a leaf holds items, an internal node holds nodes."""

    __slots__ = ("is_leaf", "entries", "rect", "aggregate")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: List[Any] = []
        self.rect: Optional[Rect] = None
        self.aggregate: Any = None

    def entry_rect(self, entry: Any) -> Rect:
        return entry.rect() if self.is_leaf else entry.rect

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"<Node {kind} fanout={len(self.entries)} rect={self.rect}>"


class RTree:
    """Dynamic R-tree (Guttman, quadratic split) with exact aggregates."""

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries * 2 // 5)
        if self.min_entries * 2 > self.max_entries:
            raise ValueError(
                f"min_entries={self.min_entries} too large for max_entries={max_entries}"
            )
        self.root = Node(is_leaf=True)
        self._refresh(self.root)
        self._size = 0

    # ------------------------------------------------------------------
    # aggregate hooks
    # ------------------------------------------------------------------

    def _aggregate_items(self, items: Sequence[IndexedItem]) -> Any:
        return NodeAggregate(count=len(items))

    def _aggregate_children(self, children: Sequence[Node]) -> Any:
        return NodeAggregate(count=sum(c.aggregate.count for c in children))

    def _refresh(self, node: Node) -> None:
        """Recompute ``rect`` and ``aggregate`` of ``node`` from its entries."""
        if not node.entries:
            node.rect = None
        elif node.is_leaf:
            # Per-dimension min/max of the points: min() and max() keep
            # the first extreme, as union_of does, so even the sign of a
            # zero corner matches the union of the points' rects.
            columns = list(zip(*(item.values for item in node.entries)))
            node.rect = Rect(tuple(map(min, columns)), tuple(map(max, columns)))
        else:
            node.rect = Rect.union_of(child.rect for child in node.entries)
        if node.is_leaf:
            node.aggregate = self._aggregate_items(node.entries)
        else:
            node.aggregate = self._aggregate_children(node.entries)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels; 1 for a lone leaf root."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0]
            h += 1
        return h

    def items(self) -> Iterator[IndexedItem]:
        """Iterate every stored item (no particular order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.entries)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, item: IndexedItem) -> None:
        split = self._insert(self.root, item)
        if split is not None:
            old_root = self.root
            self.root = Node(is_leaf=False)
            self.root.entries = [old_root, split]
            self._refresh(self.root)
        self._size += 1

    def _insert(self, node: Node, item: IndexedItem) -> Optional[Node]:
        """Insert into the subtree; return a new sibling if ``node`` split."""
        if node.is_leaf:
            node.entries.append(item)
        else:
            child = self._choose_subtree(node, item.rect())
            split = self._insert(child, item)
            if split is not None:
                node.entries.append(split)
        if len(node.entries) > self.max_entries:
            sibling = self._split(node)
            self._refresh(node)
            return sibling
        self._refresh(node)
        return None

    def _choose_subtree(self, node: Node, rect: Rect) -> Node:
        """Guttman's ChooseLeaf step: least enlargement, ties by least area."""
        best = None
        best_key = None
        for child in node.entries:
            enlargement = child.rect.enlargement(rect)
            key = (enlargement, child.rect.area())
            if best_key is None or key < best_key:
                best = child
                best_key = key
        return best

    def _split(self, node: Node) -> Node:
        """Quadratic split; mutates ``node`` in place and returns the sibling."""
        entries = node.entries
        rects = [node.entry_rect(e) for e in entries]
        seed_a, seed_b = self._pick_seeds(rects)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = rects[seed_a]
        rect_b = rects[seed_b]
        remaining = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]
        while remaining:
            # Force-assign once a group must absorb everything left to
            # reach the minimum fill.
            if len(group_a) + len(remaining) == self.min_entries:
                for i in remaining:
                    group_a.append(entries[i])
                    rect_a = rect_a.union(rects[i])
                break
            if len(group_b) + len(remaining) == self.min_entries:
                for i in remaining:
                    group_b.append(entries[i])
                    rect_b = rect_b.union(rects[i])
                break
            idx, prefer_a = self._pick_next(rects, remaining, rect_a, rect_b)
            remaining.remove(idx)
            if prefer_a:
                group_a.append(entries[idx])
                rect_a = rect_a.union(rects[idx])
            else:
                group_b.append(entries[idx])
                rect_b = rect_b.union(rects[idx])
        node.entries = group_a
        sibling = Node(is_leaf=node.is_leaf)
        sibling.entries = group_b
        self._refresh(sibling)
        return sibling

    @staticmethod
    def _pick_seeds(rects: Sequence[Rect]) -> Tuple[int, int]:
        """The pair wasting the most area if grouped together."""
        best = (0, 1)
        best_waste = float("-inf")
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    @staticmethod
    def _pick_next(
        rects: Sequence[Rect], remaining: Sequence[int], rect_a: Rect, rect_b: Rect
    ) -> Tuple[int, bool]:
        """The entry with the strongest group preference, and that group."""
        best_idx = remaining[0]
        best_diff = -1.0
        best_prefer_a = True
        for i in remaining:
            grow_a = rect_a.enlargement(rects[i])
            grow_b = rect_b.enlargement(rects[i])
            diff = abs(grow_a - grow_b)
            if diff > best_diff:
                best_diff = diff
                best_idx = i
                best_prefer_a = grow_a < grow_b or (
                    grow_a == grow_b and rect_a.area() <= rect_b.area()
                )
        return best_idx, best_prefer_a

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, key: int, values: Sequence[float]) -> bool:
        """Remove the item with ``key`` located at ``values``.

        Returns True if the item was found.  Underfull nodes along the
        path are dissolved and their items reinserted (Guttman's
        CondenseTree), after which the root is collapsed if it has a
        single internal child.
        """
        values = tuple(float(v) for v in values)
        orphans: List[IndexedItem] = []
        found = self._delete(self.root, key, values, orphans, is_root=True)
        if not found:
            return False
        self._size -= 1
        if not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0]
        if not self.root.entries and not self.root.is_leaf:
            self.root = Node(is_leaf=True)
            self._refresh(self.root)
        for item in orphans:
            split = self._insert(self.root, item)
            if split is not None:
                old_root = self.root
                self.root = Node(is_leaf=False)
                self.root.entries = [old_root, split]
                self._refresh(self.root)
        return True

    def _delete(
        self,
        node: Node,
        key: int,
        values: Tuple[float, ...],
        orphans: List[IndexedItem],
        is_root: bool,
    ) -> bool:
        if node.is_leaf:
            for i, item in enumerate(node.entries):
                if item.key == key and item.values == values:
                    del node.entries[i]
                    self._refresh(node)
                    return True
            return False
        for child in node.entries:
            if child.rect is not None and child.rect.contains_point(values):
                if self._delete(child, key, values, orphans, is_root=False):
                    if self._count_entries(child) < self.min_entries:
                        node.entries.remove(child)
                        orphans.extend(self._collect_items(child))
                    self._refresh(node)
                    return True
        return False

    @staticmethod
    def _count_entries(node: Node) -> int:
        return len(node.entries)

    @staticmethod
    def _collect_items(node: Node) -> List[IndexedItem]:
        out: List[IndexedItem] = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                out.extend(n.entries)
            else:
                stack.extend(n.entries)
        return out

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search_window(self, window: Rect) -> Iterator[IndexedItem]:
        """Yield every item whose point falls inside ``window``."""
        if self.root.rect is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.rect is None or not node.rect.intersects(window):
                continue
            if node.is_leaf:
                for item in node.entries:
                    if window.contains_point(item.values):
                        yield item
            else:
                stack.extend(node.entries)

    def find(self, key: int, values: Sequence[float]) -> Optional[IndexedItem]:
        """Locate a specific item, or None."""
        point = Rect.from_point(values)
        for item in self.search_window(point):
            if item.key == key:
                return item
        return None

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Re-derive every structural property; raise AssertionError on drift.

        Checks: uniform leaf depth, fan-out bounds (root exempt), MBR
        exactness, aggregate exactness, and that the advertised size
        matches the stored item count.
        """
        leaf_depths: List[int] = []
        total = self._check_node(self.root, depth=0, leaf_depths=leaf_depths, is_root=True)
        assert total == self._size, f"size drift: counted {total}, recorded {self._size}"
        assert len(set(leaf_depths)) <= 1, f"leaves at different depths: {set(leaf_depths)}"

    def _check_node(
        self, node: Node, depth: int, leaf_depths: List[int], is_root: bool
    ) -> int:
        if not is_root:
            assert len(node.entries) >= self.min_entries, (
                f"underfull non-root node: {len(node.entries)} < {self.min_entries}"
            )
        assert len(node.entries) <= self.max_entries, "overfull node"
        if node.entries:
            expected_rect = Rect.union_of(node.entry_rect(e) for e in node.entries)
            assert node.rect == expected_rect, f"stale MBR on {node!r}"
        else:
            assert node.rect is None and is_root, "empty non-root node"
        if node.is_leaf:
            leaf_depths.append(depth)
            expected = self._aggregate_items(node.entries)
            self._assert_aggregate(node.aggregate, expected)
            return len(node.entries)
        total = 0
        for child in node.entries:
            total += self._check_node(child, depth + 1, leaf_depths, is_root=False)
        expected = self._aggregate_children(node.entries)
        self._assert_aggregate(node.aggregate, expected)
        return total

    @staticmethod
    def _assert_aggregate(actual: Any, expected: Any) -> None:
        assert actual.count == expected.count, (
            f"stale aggregate count: {actual.count} != {expected.count}"
        )
