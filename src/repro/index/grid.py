"""A uniform grid index — the PR-tree's simpler rival.

For the low dimensionalities the paper evaluates (d ≤ 5), a fixed
uniform grid with per-cell probability aggregates answers the §6.3
dominator-product probe with the same two-tier logic as the PR-tree —
consume cells entirely inside the dominance region via their aggregated
``∏(1−P)``, skip cells entirely outside, refine boundary cells point by
point — at a fraction of the structural complexity (no splits, no
rebalancing).  Its weaknesses are the classic ones: fixed resolution,
poor behaviour under skew, and cell bounds that must be tracked as
*actual* per-cell bounding boxes to stay tight.

:class:`GridIndex` implements the same probe/mutation surface as
:class:`~repro.index.prtree.PRTree` (``add``/``remove``/
``dominators_product``/``items``/``node_accesses``), so
:class:`~repro.distributed.site.IndexKernel` adapts either —
``SiteConfig(kernel="grid")`` selects this one — and the ablation
benchmark can price the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from .prtree import _point_dominates
from .rtree import IndexedItem

__all__ = ["GridIndex"]


@dataclass
class _Cell:
    """Items of one grid cell plus their exact summary."""

    items: List[IndexedItem]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    non_occurrence: float

    @classmethod
    def of(cls, items: List[IndexedItem]) -> "_Cell":
        d = len(items[0].values)
        lower = tuple(min(it.values[j] for it in items) for j in range(d))
        upper = tuple(max(it.values[j] for it in items) for j in range(d))
        product = 1.0
        for it in items:
            product *= 1.0 - it.probability
        return cls(items=items, lower=lower, upper=upper, non_occurrence=product)


class GridIndex:
    """Uniform grid over canonical min-space with per-cell aggregates."""

    #: Target average cell occupancy used by the auto-sizing rule.
    TARGET_CELL_OCCUPANCY = 4

    def __init__(
        self,
        preference: Optional[Preference] = None,
        cells_per_dim: int = 16,
    ) -> None:
        if cells_per_dim < 1:
            raise ValueError("need at least one cell per dimension")
        self.preference = preference
        self.cells_per_dim = cells_per_dim
        self.node_accesses = 0
        self._cells: Dict[Tuple[int, ...], _Cell] = {}
        self._domain_lower: Optional[Tuple[float, ...]] = None
        self._domain_upper: Optional[Tuple[float, ...]] = None
        self._size = 0

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        tuples: Iterable[UncertainTuple],
        preference: Optional[Preference] = None,
        cells_per_dim: Optional[int] = None,
        **_ignored,
    ) -> "GridIndex":
        """Bulk-build; ``cells_per_dim=None`` auto-sizes the grid.

        The auto rule aims at ~:data:`TARGET_CELL_OCCUPANCY` items per
        cell, i.e. ``(n / occupancy)^(1/d)`` cells per dimension — too
        fine a grid makes the probe walk thousands of near-empty cells
        and loses to a plain scan.
        """
        tuples = list(tuples)
        if cells_per_dim is None:
            if tuples:
                d = tuples[0].dimensionality
                cells_per_dim = max(
                    1,
                    round((len(tuples) / cls.TARGET_CELL_OCCUPANCY) ** (1.0 / d)),
                )
            else:
                cells_per_dim = 1
        index = cls(preference=preference, cells_per_dim=cells_per_dim)
        items = [index._item_for(t) for t in tuples]
        if items:
            d = len(items[0].values)
            index._domain_lower = tuple(
                min(it.values[j] for it in items) for j in range(d)
            )
            index._domain_upper = tuple(
                max(it.values[j] for it in items) for j in range(d)
            )
            for item in items:
                index._insert(item)
        return index

    def _item_for(self, t: UncertainTuple) -> IndexedItem:
        values = (
            self.preference.project(t.values)
            if self.preference is not None
            else tuple(t.values)
        )
        return IndexedItem(
            key=t.key, values=tuple(values), probability=t.probability, payload=t
        )

    def _cell_of(self, values: Tuple[float, ...]) -> Tuple[int, ...]:
        # Outliers beyond the build-time domain clamp into edge cells —
        # correctness is unaffected because every cell keeps its actual
        # bounding box.
        if self._domain_lower is None:
            return tuple(0 for _ in values)
        out = []
        for v, lo, up in zip(values, self._domain_lower, self._domain_upper):
            width = (up - lo) / self.cells_per_dim if up > lo else 1.0
            idx = int((v - lo) / width) if width > 0 else 0
            out.append(max(0, min(self.cells_per_dim - 1, idx)))
        return tuple(out)

    def _insert(self, item: IndexedItem) -> None:
        key = self._cell_of(item.values)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = _Cell.of([item])
        else:
            self._cells[key] = _Cell.of(cell.items + [item])
        self._size += 1

    def add(self, t: UncertainTuple) -> None:
        if self._domain_lower is None:
            item = self._item_for(t)
            self._domain_lower = item.values
            self._domain_upper = item.values
            self._insert(item)
            return
        self._insert(self._item_for(t))

    def remove(self, t: UncertainTuple) -> bool:
        item = self._item_for(t)
        key = self._cell_of(item.values)
        cell = self._cells.get(key)
        if cell is None:
            return False
        remaining = [it for it in cell.items if it.key != item.key]
        if len(remaining) == len(cell.items):
            return False
        if remaining:
            self._cells[key] = _Cell.of(remaining)
        else:
            del self._cells[key]
        self._size -= 1
        return True

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[IndexedItem]:
        for cell in self._cells.values():
            yield from cell.items

    def tuples(self) -> Iterator[UncertainTuple]:
        for item in self.items():
            yield item.payload

    # ------------------------------------------------------------------
    # the §6.3 probe
    # ------------------------------------------------------------------

    def dominators_product(
        self,
        target: UncertainTuple,
        floor: float = 0.0,
        exclude_key: Optional[int] = None,
    ) -> float:
        """``∏(1−P)`` over stored tuples dominating ``target``.

        Same contract as :meth:`PRTree.dominators_product`, including
        the early-exit ``floor``.
        """
        if exclude_key is None:
            exclude_key = target.key
        point = (
            tuple(self.preference.project(target.values))
            if self.preference is not None
            else tuple(target.values)
        )
        target_cell = self._cell_of(point)
        product = 1.0
        for cell_key, cell in self._candidate_cells(target_cell):
            self.node_accesses += 1
            # Entirely outside the dominance region?
            if any(lo > p for lo, p in zip(cell.lower, point)):
                continue
            fully_inside = all(up <= p for up, p in zip(cell.upper, point)) and any(
                up < p for up, p in zip(cell.upper, point)
            )
            point_in_bbox = all(
                lo <= p <= up for lo, p, up in zip(cell.lower, point, cell.upper)
            )
            if fully_inside and not (
                point_in_bbox and self._contains_key(cell, exclude_key)
            ):
                product *= cell.non_occurrence
            else:
                for item in cell.items:
                    if item.key == exclude_key:
                        continue
                    if _point_dominates(item.values, point):
                        product *= 1.0 - item.probability
                        if product < floor:
                            return product
            if product < floor:
                return product
        return product

    def dominators_products(
        self, targets: Iterable[UncertainTuple], floor: float = 0.0
    ) -> List[float]:
        """Batched probe: one Eq.-9 product per target.

        Mirrors :meth:`PRTree.dominators_products` so either index can
        back the coordinator's batched FEEDBACK rounds.
        """
        return [self.dominators_product(t, floor=floor) for t in targets]

    def _candidate_cells(self, target_cell: Tuple[int, ...]):
        """Cells that can hold dominators: index ≤ target on every dim.

        Monotonicity of the cell function (including edge clamping)
        guarantees soundness.  When the dominance sub-grid is smaller
        than the populated cell set — the common case for near-origin
        skyline candidates — its keys are enumerated directly and
        looked up; otherwise the populated cells are filtered.
        """
        import itertools

        region = 1
        for tk in target_cell:
            region *= tk + 1
        if region <= len(self._cells):
            for cell_key in itertools.product(
                *(range(tk + 1) for tk in target_cell)
            ):
                cell = self._cells.get(cell_key)
                if cell is not None:
                    yield cell_key, cell
        else:
            for cell_key, cell in self._cells.items():
                if all(ck <= tk for ck, tk in zip(cell_key, target_cell)):
                    yield cell_key, cell

    @staticmethod
    def _contains_key(cell: _Cell, key: Optional[int]) -> bool:
        if key is None:
            return False
        return any(it.key == key for it in cell.items)

    def check_invariants(self) -> None:
        """Re-derive every cell summary; raise AssertionError on drift."""
        total = 0
        for cell_key, cell in self._cells.items():
            assert cell.items, f"empty cell {cell_key} retained"
            fresh = _Cell.of(cell.items)
            assert cell.lower == fresh.lower and cell.upper == fresh.upper, (
                f"stale bbox in cell {cell_key}"
            )
            assert abs(cell.non_occurrence - fresh.non_occurrence) < 1e-9, (
                f"stale product in cell {cell_key}"
            )
            total += len(cell.items)
        assert total == self._size, f"size drift: {total} != {self._size}"
