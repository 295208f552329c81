"""Axis-aligned rectangle (MBR) geometry for the R-tree family.

Everything is plain tuples of floats, with no numpy: tree traversal
touches one small fixed-``d`` box at a time, where a per-call numpy
dispatch costs more than the comparison itself.  The §6.3 window query
and BBS test a box against a point with the one min-space dominance
test, :func:`repro.core.dominance.dominates_point`, on the box's
corners — its tuple compare and ``map`` run in C, so a node test costs
no interpreted per-dimension loop.  Vectorization pays only at
partition granularity, and that lives in :mod:`repro.core.kernels`.
Rectangles are immutable values, which keeps node updates explicit: a
node's MBR is only ever *recomputed*, never mutated in place, so a
stale bound is a bug the invariant checker can catch.
Coordinates are assumed to live in canonical min-space (preferences are
applied before anything reaches the index; see
:meth:`repro.core.dominance.Preference.project`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = ["Rect"]


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned box ``[lower, upper]``."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        if len(lo) != len(up):
            raise ValueError("lower and upper corners disagree on dimensionality")
        if any(low > high for low, high in zip(lo, up)):
            raise ValueError(f"degenerate rectangle: lower {lo} exceeds upper {up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def from_point(cls, values: Sequence[float]) -> "Rect":
        """The degenerate rectangle covering one point."""
        pt = tuple(float(v) for v in values)
        return cls(pt, pt)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle enclosing all ``rects`` (must be non-empty)."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot take the union of zero rectangles")
        lower = list(rects[0].lower)
        upper = list(rects[0].upper)
        for r in rects[1:]:
            for i, (lo, up) in enumerate(zip(r.lower, r.upper)):
                if lo < lower[i]:
                    lower[i] = lo
                if up > upper[i]:
                    upper[i] = up
        return cls(tuple(lower), tuple(upper))

    @property
    def dimensionality(self) -> int:
        return len(self.lower)

    def union(self, other: "Rect") -> "Rect":
        return Rect.union_of((self, other))

    def area(self) -> float:
        """Hyper-volume; zero for degenerate boxes."""
        area = 1.0
        for lo, up in zip(self.lower, self.upper):
            area *= up - lo
        return area

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' tiebreaker)."""
        return float(sum(up - lo for lo, up in zip(self.lower, self.upper)))

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to absorb ``other`` — Guttman's ChooseLeaf metric."""
        return self.union(other).area() - self.area()

    def intersects(self, other: "Rect") -> bool:
        return all(
            lo <= o_up and o_lo <= up
            for lo, up, o_lo, o_up in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def contains_point(self, values: Sequence[float]) -> bool:
        return all(lo <= v <= up for lo, up, v in zip(self.lower, self.upper, values))

    def contains_rect(self, other: "Rect") -> bool:
        return all(
            lo <= o_lo and o_up <= up
            for lo, up, o_lo, o_up in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def min_coordinate_sum(self) -> float:
        """Lower bound on the coordinate sum of any contained point.

        This is BBS's ``mindist`` generalised to data that may be
        negative in min-space (e.g. a MAX preference negates values):
        the dominance-monotone sort key of a subtree is the sum of its
        lower corner.
        """
        return float(sum(self.lower))
