"""Output-sensitive all-tuples skyline probabilities via space partitioning.

The flat kernels of :mod:`repro.core.kernels` answer *one* Eq.-9 probe
with one ``(n,)`` broadcast; filling the whole ``P_sky`` table that way
is ``n`` broadcasts — O(n²) comparisons, the wall our benchmarks hit at
n≈20k.  This module trades that for the space-partitioning scheme of
"Computing All Restricted Skyline Probabilities" (arXiv 2303.00259),
on a uniform grid:

* Rows are binned into a uniform grid over canonical min-space (the
  binning is monotone, so ``r ≺ x ⟹ cell(r) ≤ cell(x)`` componentwise
  and the candidate-dominator cells of a target cell are exactly its
  lower staircase sub-grid).
* Every cell keeps its *actual* bounding box and the running
  ``∏(1 − P)`` aggregate of its members (in ascending row order).
* The table pass classifies whole cell pairs at once: a candidate cell
  whose upper corner falls strictly below the target cell's lower
  corner contributes its **aggregate** to every target member in one
  multiply; a cell that cannot reach the target's box is skipped
  outright; only the thin *boundary* staircase is refined point by
  point — and even there, rows that dominate every member are folded
  into a shared scalar before the dense mask is built.

Per-point work therefore tracks the dominance *boundary* instead of the
dominance *volume*: the dense refinement touches O(surface) rows where
the flat kernel touches all n.  ``benchmarks/test_kernels_regression.py``
prices the crossover — at n=100k the table builds an order of magnitude
faster than the flat kernels can fill it, and n=10⁶ becomes feasible on
one site.

Exactness contract: every product is a deterministic sequence of the
same IEEE-754 ``×(1 − P)`` multiplications the scalar reference
performs, but *associated differently* (cell aggregates are folded as
factors).  Products are therefore reproducible bit-for-bit run to run,
and agree with the scalar/vectorized kernels to the last few ulps —
the hypothesis suite in ``tests/core/test_partition_index.py`` pins
agreement at 1e-12 alongside exact membership agreement.

§5.4 maintenance is cell-granular: an insert/delete dirties only the
cells that can hold a dominated row (``cell.upper ≥ point``), and the
next table read recomputes just those cells against the refreshed
aggregates.  :meth:`PartitionIndex.to_payload` /
:meth:`PartitionIndex.from_payload` split the expensive product pass
from the cheap structural rebuild so a worker *process* can build the
table and ship only arrays back (see
:mod:`repro.distributed.workers`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .kernels import ColumnStore

__all__ = ["PartitionIndex"]

#: Target average rows per grid cell.  Larger cells amortise the
#: per-cell-pair classification; smaller cells shrink the boundary
#: refinement.  ~128 sits near the measured optimum for d=3..4 uniform
#: data once the staircase fast path is in play; callers tune it via
#: ``occupancy``.
DEFAULT_OCCUPANCY = 128

_EMPTY_LOWER = np.inf
_EMPTY_UPPER = -np.inf


class PartitionIndex:
    """Uniform-grid partition of a columnar store with the P_sky table.

    Construction is two-phase: :meth:`build` bins the rows and derives
    per-cell summaries (cheap, O(n log n)), then the first table read
    runs the cell-classified product pass (the expensive part, also
    triggered explicitly by :meth:`all_probabilities`).
    """

    def __init__(
        self,
        values: np.ndarray,
        probabilities: np.ndarray,
        keys: np.ndarray,
        cells_per_dim: int,
        lo: np.ndarray,
        width: np.ndarray,
    ) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self.non_occurrence = 1.0 - self.probabilities
        self.keys = np.asarray(keys, dtype=np.int64)
        self.alive = np.ones(len(self.keys), dtype=bool)
        self.cells_per_dim = int(cells_per_dim)
        self._lo = np.asarray(lo, dtype=np.float64)
        self._width = np.asarray(width, dtype=np.float64)
        self._key_rows: Dict[int, int] = {
            int(k): i for i, k in enumerate(self.keys)
        }
        # Per-cell state, parallel arrays indexed by *cell position*.
        # ``_cell_ids`` keeps the raveled grid id so canonical
        # (ascending-id) processing order survives late cell creation.
        self._cell_ids = np.zeros(0, dtype=np.int64)
        self._cell_lower = np.zeros((0, self.dimensionality), dtype=np.float64)
        self._cell_upper = np.zeros((0, self.dimensionality), dtype=np.float64)
        self._cell_agg = np.zeros(0, dtype=np.float64)
        self._cell_rows: List[np.ndarray] = []
        self._cell_index: Dict[int, int] = {}
        #: Non-occurrence products, aligned with rows; garbage at dead rows.
        self.products = np.ones(len(self.keys), dtype=np.float64)
        self._dirty: Set[int] = set()
        #: True while cell *positions* already run in ascending raveled
        #: id (a fresh build; np.unique sorts).  Late cell creation may
        #: clear it, after which canonical ordering needs an argsort.
        self._ids_sorted = True
        self._bin_rows()
        # Everything is dirty until the first product pass.
        self._dirty.update(range(len(self._cell_rows)))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        store: ColumnStore,
        occupancy: Optional[int] = None,
        cells_per_dim: Optional[int] = None,
    ) -> "PartitionIndex":
        """Bin ``store``'s rows; ``cells_per_dim=None`` auto-sizes.

        The auto rule targets ``occupancy`` rows per cell —
        ``(n / occupancy)^(1/d)`` bins per dimension.  The default
        occupancy is large because the table pass pays per cell *pair*.
        """
        values = np.asarray(store.values, dtype=np.float64)
        n = values.shape[0]
        d = values.shape[1] if values.ndim == 2 and values.shape[1] else 1
        if cells_per_dim is None:
            occ = DEFAULT_OCCUPANCY if occupancy is None else max(1, occupancy)
            cells_per_dim = max(1, round((max(n, 1) / occ) ** (1.0 / d))) if n else 1
        if n:
            lo = values.min(axis=0)
            hi = values.max(axis=0)
        else:
            lo = np.zeros(d)
            hi = np.zeros(d)
        width = (hi - lo) / cells_per_dim
        width[width <= 0.0] = 1.0
        return cls(
            values,
            np.asarray(store.probabilities, dtype=np.float64),
            store.keys,
            cells_per_dim,
            lo,
            width,
        )

    def _bin_of(self, points: np.ndarray) -> np.ndarray:
        """Grid coordinates of ``(k, d)`` points; monotone, edge-clamped."""
        idx = np.floor((points - self._lo) / self._width).astype(np.int64)
        return np.clip(idx, 0, self.cells_per_dim - 1)

    def _ravel(self, bins: np.ndarray) -> np.ndarray:
        """Raveled cell ids (C order) for ``(k, d)`` grid coordinates."""
        out = bins[:, 0].astype(np.int64)
        for j in range(1, bins.shape[1]):
            out = out * self.cells_per_dim + bins[:, j]
        return out

    def _canonical(self, positions: np.ndarray) -> np.ndarray:
        """Cell positions reordered to ascending raveled id (canonical)."""
        if self._ids_sorted:
            return positions
        return positions[np.argsort(self._cell_ids[positions], kind="stable")]

    def _bin_rows(self) -> None:
        n = len(self.keys)
        if n == 0:
            return
        ids = self._ravel(self._bin_of(self.values))
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        cell_ids, starts = np.unique(sorted_ids, return_index=True)
        bounds = np.append(starts, n)
        self._cell_ids = cell_ids
        self._cell_rows = [
            order[bounds[i] : bounds[i + 1]] for i in range(len(cell_ids))
        ]
        self._cell_index = {int(cid): i for i, cid in enumerate(cell_ids)}
        self._cell_lower = np.minimum.reduceat(self.values[order], starts, axis=0)
        self._cell_upper = np.maximum.reduceat(self.values[order], starts, axis=0)
        self._cell_agg = np.multiply.reduceat(self.non_occurrence[order], starts)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.alive.sum())

    @property
    def dimensionality(self) -> int:
        return self.values.shape[1] if self.values.ndim == 2 else 1

    @property
    def cell_count(self) -> int:
        return len(self._cell_rows)

    def stale_cells(self) -> int:
        """Cells awaiting recomputation (observability + tests)."""
        return len(self._dirty)

    # ------------------------------------------------------------------
    # the all-probabilities table
    # ------------------------------------------------------------------

    def all_probabilities(self) -> np.ndarray:
        """The full Eq.-9 table: ``∏_{t'≺t}(1 − P(t'))`` per stored row.

        Aligned with :attr:`keys`; entries at dead rows are garbage —
        mask with :attr:`alive`.  Dirty cells are recomputed first, so
        the returned view is always current.
        """
        self.refresh()
        return self.products

    def p_sky(self) -> np.ndarray:
        """Eq. 3 per stored row: ``P(t) × ∏_{t'≺t}(1 − P(t'))``."""
        return self.probabilities * self.all_probabilities()

    def refresh(self) -> int:
        """Recompute every dirty cell's products; returns cells redone."""
        if not self._dirty:
            return 0
        # Canonical order: ascending raveled cell id, matching a fresh
        # build, so recomputation is deterministic under any dirty-set
        # iteration order.
        dirty = sorted(self._dirty, key=lambda ci: int(self._cell_ids[ci]))
        for ci in dirty:
            self._recompute_cell(ci)
        self._dirty.clear()
        return len(dirty)

    def _recompute_cell(self, ci: int) -> None:
        members = self._cell_rows[ci]
        if members.size == 0:
            return
        mvals = self.values[members]
        c_lower = self._cell_lower[ci]
        c_upper = self._cell_upper[ci]
        # Candidate cells: grid coords ≤ target coords componentwise is
        # implied by the bbox tests below (binning is monotone), so the
        # classification runs on actual boxes directly — exact, and
        # immune to float rounding at bin edges.
        reach = ~np.any(self._cell_lower > c_upper[None, :], axis=1)
        reach[ci] = False
        full = (
            reach
            & np.all(self._cell_upper <= c_lower[None, :], axis=1)
            & np.any(self._cell_upper < c_lower[None, :], axis=1)
        )
        boundary = reach & ~full
        # Whole-cell contributions, folded in ascending cell-id order.
        common = 1.0
        full_pos = np.nonzero(full)[0]
        if full_pos.size:
            full_pos = self._canonical(full_pos)
            common = float(np.prod(self._cell_agg[full_pos]))
        # Staircase fast path: a boundary cell that overlaps the target
        # box on exactly ONE dimension `j` — and sits strictly below it
        # on some other dimension — resolves against every member with a
        # single 1-D test: its rows already satisfy ``≤`` on the resolved
        # dims (upper ≤ c_lower ≤ member) and ``<`` on the strict dim, so
        # r ≺ member  ⟺  r[j] ≤ member[j].  Per free dimension, all such
        # cells' rows collapse into one sort + cumprod + searchsorted:
        # O(B log B + m log B) where the dense mask pays O(B·m).
        stair_prod = np.ones(members.size, dtype=np.float64)
        free = self._cell_upper > c_lower[None, :]  # (ncells, d)
        strict_some = np.any(self._cell_upper < c_lower[None, :], axis=1)
        stair = boundary & (free.sum(axis=1) == 1) & strict_some
        if np.any(stair):
            boundary = boundary & ~stair
            for j in range(self.dimensionality):
                sj_pos = np.nonzero(stair & free[:, j])[0]
                if not sj_pos.size:
                    continue
                sj_pos = self._canonical(sj_pos)
                srows = np.concatenate([self._cell_rows[b] for b in sj_pos])
                vals_j = self.values[srows, j]
                order = np.argsort(vals_j, kind="stable")
                prefix = np.cumprod(self.non_occurrence[srows[order]])
                counts = np.searchsorted(vals_j[order], mvals[:, j], side="right")
                stair_prod *= np.where(
                    counts > 0, prefix[np.maximum(counts - 1, 0)], 1.0
                )
        # Remaining boundary rows, gathered in (cell id, row) order.
        bnd_pos = np.nonzero(boundary)[0]
        if bnd_pos.size:
            bnd_pos = self._canonical(bnd_pos)
            rows = np.concatenate([self._cell_rows[b] for b in bnd_pos])
            rvals = self.values[rows]
            # Rows beyond the target box dominate nobody here.
            keep = np.all(rvals <= c_upper[None, :], axis=1)
            rows = rows[keep]
            rvals = rvals[keep]
            # Rows at or below the box's lower corner (strict somewhere)
            # dominate *every* member: fold them into the shared scalar
            # instead of the dense mask.
            le_lower = rvals <= c_lower[None, :]
            dom_all = np.all(le_lower, axis=1) & np.any(
                rvals < c_lower[None, :], axis=1
            )
            if np.any(dom_all):
                common = common * float(np.prod(self.non_occurrence[rows[dom_all]]))
                rows = rows[~dom_all]
                rvals = rvals[~dom_all]
        else:
            rows = np.zeros(0, dtype=np.int64)
            rvals = np.zeros((0, self.dimensionality), dtype=np.float64)
        dense = self._dense_products(rvals, self.non_occurrence[rows], mvals, c_lower)
        own = self._own_cell_products(mvals, self.non_occurrence[members])
        self.products[members] = ((common * stair_prod) * dense) * own

    @staticmethod
    def _dense_products(
        rvals: np.ndarray,
        rfactors: np.ndarray,
        mvals: np.ndarray,
        c_lower: np.ndarray,
    ) -> np.ndarray:
        """Per-member ``∏(1−P)`` over the refined boundary rows.

        One (B, m) mask built dimension by dimension with contiguous
        ops — no fancy indexing, no (B, m, d) intermediate.  Rows
        strictly below the target box on some dimension skip the
        strictness pass entirely (they are strict against every member
        by that dimension alone).
        """
        m = mvals.shape[0]
        if rvals.shape[0] == 0:
            return np.ones(m, dtype=np.float64)
        d = rvals.shape[1]
        mask = np.less_equal(rvals[:, 0, None], mvals[None, :, 0])
        tmp = np.empty_like(mask)
        for j in range(1, d):
            np.less_equal(rvals[:, j, None], mvals[None, :, j], out=tmp)
            mask &= tmp
        # Strictness: a row below the box's lower corner on any dim is
        # strict against every member already; only when no row has that
        # slack does the explicit < pass run.
        if not bool(np.all(np.any(rvals < c_lower[None, :], axis=1))):
            lt = np.less(rvals[:, 0, None], mvals[None, :, 0])
            for j in range(1, d):
                np.less(rvals[:, j, None], mvals[None, :, j], out=tmp)
                lt |= tmp
            mask &= lt
        out: np.ndarray = np.multiply.reduce(
            np.broadcast_to(rfactors[:, None], mask.shape),
            axis=0,
            where=mask,
            initial=1.0,
        )
        return out

    @staticmethod
    def _own_cell_products(mvals: np.ndarray, mfactors: np.ndarray) -> np.ndarray:
        """Within-cell dominators: an (m, m) mask; ties/self never dominate."""
        m = mvals.shape[0]
        if m <= 1:
            return np.ones(m, dtype=np.float64)
        le = np.all(mvals[:, None, :] <= mvals[None, :, :], axis=2)
        lt = np.any(mvals[:, None, :] < mvals[None, :, :], axis=2)
        mask = le & lt
        return np.prod(np.where(mask, mfactors[:, None], 1.0), axis=0)

    # ------------------------------------------------------------------
    # output-sensitive probes (Eq. 9 for arbitrary points)
    # ------------------------------------------------------------------

    def dominator_product(
        self, point: np.ndarray, exclude_key: Optional[int] = None
    ) -> float:
        """Eq. 9 against the partition: aggregates for interior cells,
        per-row refinement only on the boundary staircase."""
        self.refresh()
        if not self._cell_rows:
            return 1.0
        p = np.asarray(point, dtype=np.float64)
        reach = ~np.any(self._cell_lower > p[None, :], axis=1)
        full = (
            reach
            & np.all(self._cell_upper <= p[None, :], axis=1)
            & np.any(self._cell_upper < p[None, :], axis=1)
        )
        exclude_row = -1
        if exclude_key is not None:
            exclude_row = self._key_rows.get(int(exclude_key), -1)
            if exclude_row >= 0 and self.alive[exclude_row]:
                # The excluded row's cell must be refined, not aggregated.
                home = self._cell_of_row(exclude_row)
                if home >= 0:
                    full[home] = False
            else:
                exclude_row = -1
        boundary = reach & ~full
        product = 1.0
        full_pos = np.nonzero(full)[0]
        if full_pos.size:
            full_pos = self._canonical(full_pos)
            product = float(np.prod(self._cell_agg[full_pos]))
        bnd_pos = np.nonzero(boundary)[0]
        if bnd_pos.size:
            bnd_pos = self._canonical(bnd_pos)
            rows = np.concatenate([self._cell_rows[b] for b in bnd_pos])
            if exclude_row >= 0:
                rows = rows[rows != exclude_row]
            rvals = self.values[rows]
            dom = np.all(rvals <= p[None, :], axis=1) & np.any(
                rvals < p[None, :], axis=1
            )
            if np.any(dom):
                product = product * float(np.prod(self.non_occurrence[rows[dom]]))
        return product

    def dominator_products(
        self,
        points: np.ndarray,
        exclude_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> np.ndarray:
        """Batched :meth:`dominator_product`, one probe point per row."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        out = np.ones(pts.shape[0], dtype=np.float64)
        for i in range(pts.shape[0]):
            key = exclude_keys[i] if exclude_keys is not None else None
            out[i] = self.dominator_product(pts[i], exclude_key=key)
        return out

    def _cell_of_row(self, row: int) -> int:
        cid = int(self._ravel(self._bin_of(self.values[row].reshape(1, -1)))[0])
        return self._cell_index.get(cid, -1)

    # ------------------------------------------------------------------
    # §5.4 maintenance: cell-granular invalidation
    # ------------------------------------------------------------------

    def apply_insert(self, point: np.ndarray, probability: float, key: int) -> None:
        """Add one row (min-space coordinates) and dirty the touched cells.

        Only cells that can hold a row dominated by ``point`` —
        ``cell.upper ≥ point`` componentwise — need their products
        redone; everything else keeps its table entries.
        """
        if int(key) in self._key_rows:
            raise ValueError(f"key {key} already indexed")
        p = np.asarray(point, dtype=np.float64).reshape(1, -1)
        row = len(self.keys)
        self.values = np.concatenate([self.values, p]) if row else p.copy()
        self.probabilities = np.append(self.probabilities, float(probability))
        self.non_occurrence = np.append(self.non_occurrence, 1.0 - float(probability))
        self.keys = np.append(self.keys, np.int64(key))
        self.alive = np.append(self.alive, True)
        self.products = np.append(self.products, 1.0)
        self._key_rows[int(key)] = row
        cid = int(self._ravel(self._bin_of(p))[0])
        ci = self._cell_index.get(cid)
        if ci is None:
            ci = len(self._cell_rows)
            self._cell_index[cid] = ci
            if self._cell_ids.size and cid <= int(self._cell_ids[-1]):
                self._ids_sorted = False
            self._cell_ids = np.append(self._cell_ids, np.int64(cid))
            self._cell_rows.append(np.array([row], dtype=np.int64))
            self._cell_lower = np.concatenate([self._cell_lower, p])
            self._cell_upper = np.concatenate([self._cell_upper, p])
            self._cell_agg = np.append(self._cell_agg, 1.0)
        else:
            self._cell_rows[ci] = np.append(self._cell_rows[ci], np.int64(row))
        self._refresh_cell_summary(ci)
        self._dirty_dominated_by(p[0])

    def apply_delete(self, key: int) -> bool:
        """Drop one row by key; returns False when the key is unknown."""
        row = self._key_rows.pop(int(key), None)
        if row is None:
            return False
        self.alive[row] = False
        point = self.values[row]
        ci = self._cell_of_row(row)
        if ci >= 0:
            kept = self._cell_rows[ci]
            self._cell_rows[ci] = kept[kept != row]
            self._refresh_cell_summary(ci)
        self._dirty_dominated_by(point)
        return True

    def _refresh_cell_summary(self, ci: int) -> None:
        rows = self._cell_rows[ci]
        if rows.size == 0:
            self._cell_lower[ci] = _EMPTY_LOWER
            self._cell_upper[ci] = _EMPTY_UPPER
            self._cell_agg[ci] = 1.0
            return
        vals = self.values[rows]
        self._cell_lower[ci] = vals.min(axis=0)
        self._cell_upper[ci] = vals.max(axis=0)
        self._cell_agg[ci] = float(np.prod(self.non_occurrence[rows]))

    def _dirty_dominated_by(self, point: np.ndarray) -> None:
        """Dirty every cell that can hold a row dominated by ``point``.

        A dominated row ``r`` satisfies ``r ≥ point`` componentwise, so
        its cell's upper corner does too; cells failing that test keep
        products that are provably unaffected.
        """
        if not self._cell_rows:
            return
        hit = np.all(self._cell_upper >= point[None, :], axis=1)
        self._dirty.update(int(i) for i in np.nonzero(hit)[0])

    # ------------------------------------------------------------------
    # worker-process transfer
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The expensive state as plain arrays (process-safe pickle).

        Ships only what the structural rebuild cannot cheaply re-derive:
        the product table plus the grid parameters that make the rebuild
        land on identical cells.
        """
        self.refresh()
        return {
            "products": np.array(self.products),
            "cells_per_dim": self.cells_per_dim,
            "lo": np.array(self._lo),
            "width": np.array(self._width),
        }

    @classmethod
    def from_payload(cls, store: ColumnStore, payload: Dict[str, object]) -> "PartitionIndex":
        """Rebuild the index around a worker-computed product table.

        The structural pass (binning, boxes, aggregates) re-runs locally
        in O(n log n); the O(n^{2−1/d}) product pass is taken from the
        payload verbatim.
        """
        cells = int(payload["cells_per_dim"])  # type: ignore[arg-type]
        index = cls.build(store, cells_per_dim=cells)
        lo = np.asarray(payload["lo"], dtype=np.float64)
        width = np.asarray(payload["width"], dtype=np.float64)
        if not (np.array_equal(lo, index._lo) and np.array_equal(width, index._width)):
            raise ValueError("payload grid does not match the store")
        products = np.asarray(payload["products"], dtype=np.float64)
        if products.shape != index.products.shape:
            raise ValueError("payload product table does not match the store")
        index.products = products.copy()
        index._dirty.clear()
        return index

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Re-derive every cell summary; raise AssertionError on drift."""
        seen = 0
        for ci, rows in enumerate(self._cell_rows):
            assert len(set(rows.tolist())) == rows.size, f"duplicate rows in cell {ci}"
            seen += rows.size
            if rows.size == 0:
                assert self._cell_agg[ci] == 1.0
                continue
            vals = self.values[rows]
            assert np.array_equal(self._cell_lower[ci], vals.min(axis=0)), (
                f"stale lower bound in cell {ci}"
            )
            assert np.array_equal(self._cell_upper[ci], vals.max(axis=0)), (
                f"stale upper bound in cell {ci}"
            )
            assert abs(
                self._cell_agg[ci] - float(np.prod(self.non_occurrence[rows]))
            ) < 1e-12, f"stale aggregate in cell {ci}"
            assert bool(np.all(self.alive[rows])), f"dead row indexed in cell {ci}"
        assert seen == len(self), "cell membership does not cover the live rows"
