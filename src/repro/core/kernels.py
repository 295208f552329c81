"""Columnar (numpy) kernels for dominance tests and skyline probabilities.

Every hot path of the reproduction — the Eq. 3 local skyline computed at
``prepare()`` time, the Eq. 9 probe factor, and the Local-Pruning
feedback scan — reduces to the same primitive: *which stored points
dominate a given point, and what is the product of their non-occurrence
probabilities?*  The scalar modules (:mod:`repro.core.dominance`,
:mod:`repro.core.probability`, :mod:`repro.core.prob_skyline`) answer it
one Python call per tuple; this module answers it one broadcasted numpy
comparison per *partition*.

:class:`ColumnStore` holds a partition column-wise — an ``(n, d)``
matrix of canonical min-space coordinates plus aligned probability and
``1 − P`` vectors — and exposes:

* :meth:`ColumnStore.dominators_mask` — the boolean dominator set of one
  point: a column of :func:`dominance_matrix`, the probes' dominance
  test, which is built one coordinate column at a time.
* :meth:`ColumnStore.dominator_product` — Eq. 9 as a masked product.
* :meth:`ColumnStore.dominator_products` — the batched form: many probe
  points in one mask, bit-identical to the single products.
* :meth:`ColumnStore.prob_skyline` (:func:`prob_skyline_sfs` over
  tuples) — the sort-first local skyline evaluated against a prefix
  matrix block by block, preserving the scalar version's threshold
  early exit (factors are ≤ 1, so a partial product below the floor is
  already a verdict).

All kernels are exact re-expressions of the scalar arithmetic — the
same IEEE-754 multiplications in the same monotone setting — and the
property tests in ``tests/core/test_kernels.py`` pin agreement with the
scalar reference to 1e-9 across random preferences, duplicate
coordinates, and boundary probabilities.  A site answers Eq. 9 and its
local skyline with these scans under ``SiteConfig(kernel="columnar")``;
every kernel but the ``"scalar"`` oracle runs Local-Pruning's
dominance test over a :class:`ColumnStore` matrix.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .dominance import Preference
from .prob_skyline import ProbabilisticSkyline, SkylineMember, _check_threshold
from .tuples import UncertainTuple

__all__ = ["ColumnStore", "dominance_matrix", "prob_skyline_sfs"]

#: Initial rows per block in the cascaded scan of
#: :func:`prob_skyline_sfs`.  The first block alone disqualifies most
#: tuples (the smallest-sum rows dominate nearly everything), so it is
#: kept small; later blocks double up to :data:`_SFS_BLOCK_CAP` because
#: only a shrinking set of near-skyline candidates is still alive to
#: pay for them.
_SFS_BLOCK = 32

#: Largest block the cascade grows to.
_SFS_BLOCK_CAP = 4096


def dominance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` mask: row ``a[i]`` dominates row ``b[j]`` (min-space),
    built one column at a time, never as an ``(n, k, d)`` temporary."""
    le = a[:, 0, None] <= b[None, :, 0]
    lt = a[:, 0, None] < b[None, :, 0]
    for j in range(1, a.shape[1]):
        le &= a[:, j, None] <= b[None, :, j]
        lt |= a[:, j, None] < b[None, :, j]
    return le & lt


class ColumnStore:
    """A partition as columns: ``(n, d)`` values + probability vectors.

    Coordinates are stored in canonical min-space (the
    :class:`~repro.core.dominance.Preference` is applied once at
    construction), so every kernel is a plain ``<=`` / ``<`` broadcast
    regardless of directions or subspace — the same trick the PR-tree
    uses, lifted to columns.
    """

    __slots__ = ("values", "probabilities", "non_occurrence", "keys", "tuples")

    def __init__(
        self,
        values: np.ndarray,
        probabilities: np.ndarray,
        keys: np.ndarray,
        tuples: List[UncertainTuple],
    ) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self.non_occurrence = 1.0 - self.probabilities
        self.keys = np.asarray(keys, dtype=np.int64)
        self.tuples = tuples

    @classmethod
    def from_tuples(
        cls,
        tuples: Sequence[UncertainTuple],
        preference: Optional[Preference] = None,
    ) -> "ColumnStore":
        """Columnise ``tuples``, projecting into min-space once."""
        tuples = list(tuples)
        if not tuples:
            return cls(
                np.zeros((0, 0)), np.zeros(0), np.zeros(0, dtype=np.int64), []
            )
        raw = np.array([t.values for t in tuples], dtype=np.float64)
        values = _project_matrix(raw, preference)
        probs = np.array([t.probability for t in tuples], dtype=np.float64)
        keys = np.array([t.key for t in tuples], dtype=np.int64)
        return cls(values, probs, keys, tuples)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.values.shape[1]

    def project_point(
        self, t: UncertainTuple, preference: Optional[Preference] = None
    ) -> np.ndarray:
        """One tuple's min-space coordinates, matching the stored columns."""
        return _project_matrix(
            np.asarray(t.values, dtype=np.float64).reshape(1, -1), preference
        )[0]

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def dominators_mask(
        self, point: np.ndarray, exclude_key: Optional[int] = None
    ) -> np.ndarray:
        """Boolean ``(n,)`` mask of stored rows dominating ``point``.

        One :func:`dominance_matrix` column.  ``exclude_key`` removes
        the target's own row when it is stored here.
        """
        if len(self) == 0:
            return np.zeros(0, dtype=bool)
        mask = dominance_matrix(self.values, point.reshape(1, -1))[:, 0]
        if exclude_key is not None:
            mask &= self.keys != exclude_key
        return mask

    def dominator_product(
        self,
        point: np.ndarray,
        exclude_key: Optional[int] = None,
        floor: float = 0.0,
    ) -> float:
        """Eq. 9: ``∏ (1 − P(t'))`` over rows dominating ``point``.

        Same contract as the scalar
        :func:`~repro.core.probability.non_occurrence_product`: exact
        whenever the result is ≥ ``floor``, otherwise merely guaranteed
        below it.  (The vectorized path computes the full product either
        way — the floor only matters to callers, not to the kernel.)
        """
        mask = self.dominators_mask(point, exclude_key=exclude_key)
        if not mask.any():
            return 1.0
        return float(np.prod(self.non_occurrence[mask]))

    def dominator_products(
        self,
        points: np.ndarray,
        exclude_keys: Optional[Sequence[Optional[int]]] = None,
        block: int = 256,
    ) -> np.ndarray:
        """Batched Eq. 9: one product per probe point, ``(k,)`` out.

        ``block`` caps the ``(n, k)`` mask so a very fat batch never
        materialises gigabytes.  Each column folds in row order, as
        :meth:`dominator_product` does, so the two give the same bits.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        k = pts.shape[0]
        out = np.ones(k, dtype=np.float64)
        if len(self) == 0 or k == 0:
            return out
        excl = spared = None
        if exclude_keys is not None:
            excl = np.array([0 if key is None else key for key in exclude_keys], dtype=np.int64)
            if None in exclude_keys:  # a None key excludes no row
                spared = np.array([key is None for key in exclude_keys])
        for start in range(0, k, block):
            stop = min(k, start + block)
            mask = dominance_matrix(self.values, pts[start:stop])  # (n, b)
            if excl is not None:
                keep = self.keys[:, None] != excl[None, start:stop]
                mask &= keep if spared is None else keep | spared[None, start:stop]
            out[start:stop] = np.prod(
                np.where(mask, self.non_occurrence[:, None], 1.0), axis=0
            )
        return out

    def prob_skyline(self, threshold: float, block: int = _SFS_BLOCK) -> ProbabilisticSkyline:
        """Vectorized sort-first probabilistic skyline (Eq. 3 with early exit).

        Behaviourally identical to the scalar
        :func:`repro.core.prob_skyline.prob_skyline_sfs` — same membership,
        same probabilities, same factor order — but evaluated as a
        *candidate-filtered cascade* so the early exit vectorizes instead
        of fighting it:

        * Rows are sorted by min-space coordinate sum (ties kept stable).
          A row dominates a candidate iff it is ``<=`` on every kept
          dimension **and** its sum is strictly smaller — componentwise
          ``<=`` with equal sums forces equality — which both replaces the
          per-pair strictness test with one cheap 1-D comparison and makes
          the per-candidate prefix limit implicit (later rows can never
          have smaller sums).
        * The row matrix is scanned once in geometrically growing blocks
          (``block`` rows first, doubling to a cap).  Each block is tested
          against *every still-alive candidate* in a single broadcast, each
          alive candidate's running product absorbs its dominators in the
          block, and candidates whose product sinks below ``q / P(t)`` are
          retired — exactly the scalar early exit, amortised across the
          whole database.  The first block alone (the globally smallest
          rows, which dominate nearly everything) retires most of them.

        A candidate still alive after the last block has absorbed every one
        of its dominators in ascending-sum order, so its product — and its
        reported probability — is the scalar path's, multiplication for
        multiplication.
        """
        _check_threshold(threshold)
        n = len(self)
        if not n:
            return ProbabilisticSkyline(threshold, [])
        sums = self.values.sum(axis=1)
        order = np.argsort(sums, kind="stable")
        values = self.values[order]
        omp = self.non_occurrence[order]
        probs = self.probabilities[order]
        sums = sums[order]

        # Existential-probability skip (P_sky(t) ≤ P(t) < q) seeds the
        # alive set; floors are only meaningful where alive.
        alive = probs >= threshold
        floors = np.divide(
            threshold, probs, out=np.ones_like(probs), where=probs > 0.0
        )
        product = np.ones(n, dtype=np.float64)

        start = 0
        width = max(1, block)
        d = values.shape[1]
        while start < n:
            # A candidate before ``start`` has already seen every row with a
            # strictly smaller sum — its product is final, so only positions
            # ≥ start still participate.
            active = start + np.nonzero(alive[start:])[0]
            if active.size == 0:
                break
            stop = min(n, start + width)
            rows = values[start:stop]  # (b, d)
            cand = values[active]  # (k, d)
            # Sum test first (cheapest and most selective), then one (b, k)
            # comparison per dimension — never materialising a (b, k, d)
            # temporary.
            dominated = sums[start:stop, None] < sums[active][None, :]
            for dim in range(d):
                dominated &= rows[:, dim, None] <= cand[None, :, dim]
            product[active] *= np.prod(
                np.where(dominated, omp[start:stop, None], 1.0), axis=0
            )
            alive[active] = product[active] >= floors[active]
            start = stop
            width = min(width * 2, _SFS_BLOCK_CAP)

        members = [
            SkylineMember(self.tuples[order[i]], float(probs[i] * product[i]))
            for i in np.nonzero(alive)[0]
        ]
        return ProbabilisticSkyline(threshold, members)


def prob_skyline_sfs(
    database: Sequence[UncertainTuple],
    threshold: float,
    preference: Optional[Preference] = None,
    block: int = _SFS_BLOCK,
) -> ProbabilisticSkyline:
    """:meth:`ColumnStore.prob_skyline` over ``database`` under ``preference``."""
    return ColumnStore.from_tuples(database, preference).prob_skyline(threshold, block)


def _project_matrix(
    raw: np.ndarray, preference: Optional[Preference]
) -> np.ndarray:
    """Apply a preference's signs and subspace to an ``(n, d)`` matrix.

    Column-wise equivalent of :meth:`Preference.project`: multiply each
    kept dimension by its direction sign — the same IEEE multiplication
    the scalar path performs, so projected coordinates are bit-identical
    across the two paths.
    """
    if preference is None:
        return raw
    d = raw.shape[1]
    dims = np.array(preference.effective_dims(d), dtype=np.intp)
    signs = np.asarray(preference.signs(d), dtype=np.float64)[dims]
    return raw[:, dims] * signs
