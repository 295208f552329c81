"""Dominance tests, preference directions, and subspace projection.

The paper defines dominance for *minimisation* on every attribute: ``t
≺ s`` iff ``t`` is no larger than ``s`` everywhere and strictly smaller
somewhere (§3.1).  Real applications mix directions — the stock
example of the introduction prefers a *low* price but a *high* volume —
and §4 notes the whole framework extends to any user-chosen subspace of
``k ≤ d`` attributes.  Both generalisations live here as a
:class:`Preference` object that every algorithm in the library accepts.

Every dominance test in the library is one function,
:func:`dominates_point`, over points already projected into canonical
min-space (see :meth:`Preference.project`): the index, BBS, e-DSUD and
the synopsis project once and call it directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import le
from typing import Optional, Sequence, Tuple

from .tuples import UncertainTuple

__all__ = [
    "Direction",
    "Preference",
    "dominates",
    "dominates_point",
    "dominates_values",
]


class Direction(enum.Enum):
    """Optimisation direction of a single attribute."""

    MIN = "min"
    MAX = "max"

    @property
    def sign(self) -> float:
        """Multiplier mapping the attribute into minimisation space."""
        return 1.0 if self is Direction.MIN else -1.0


@dataclass(frozen=True)
class Preference:
    """A dominance specification: per-dimension directions plus a subspace.

    Parameters
    ----------
    directions:
        One :class:`Direction` per *original* dimension.  ``None`` means
        minimise everything (the paper's convention).
    subspace:
        Indices of the dimensions dominance is evaluated on, in any
        order; ``None`` means the full space.  Checking dominance on a
        subspace is exactly the paper's §4 extension: simply ignore the
        other attributes.

    Instances are immutable and cheap to share between sites.
    """

    directions: Optional[Tuple[Direction, ...]] = None
    subspace: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.directions is not None:
            object.__setattr__(self, "directions", tuple(self.directions))
        if self.subspace is not None:
            dims = tuple(self.subspace)
            if len(dims) == 0:
                raise ValueError("a subspace preference needs at least one dimension")
            if len(set(dims)) != len(dims):
                raise ValueError(f"subspace {dims} repeats a dimension")
            if any(d < 0 for d in dims):
                raise ValueError(f"subspace {dims} has a negative dimension index")
            object.__setattr__(self, "subspace", dims)

    @classmethod
    def minimize(cls, dimensionality: int) -> "Preference":
        """The paper's default: minimise every one of ``dimensionality`` attrs."""
        return cls(directions=tuple(Direction.MIN for _ in range(dimensionality)))

    @classmethod
    def of(cls, spec: str) -> "Preference":
        """Build a preference from a compact string such as ``"min,max"``.

        >>> Preference.of("min,max").directions
        (<Direction.MIN: 'min'>, <Direction.MAX: 'max'>)
        """
        parts = [p.strip().lower() for p in spec.split(",")]
        dirs = []
        for p in parts:
            if p not in ("min", "max"):
                raise ValueError(f"unknown direction {p!r}; expected 'min' or 'max'")
            dirs.append(Direction.MIN if p == "min" else Direction.MAX)
        return cls(directions=tuple(dirs))

    def effective_dims(self, dimensionality: int) -> Tuple[int, ...]:
        """The dimension indices dominance is evaluated on."""
        if self.subspace is None:
            return tuple(range(dimensionality))
        for dim in self.subspace:
            if dim >= dimensionality:
                raise ValueError(
                    f"subspace dimension {dim} out of range for d={dimensionality}"
                )
        return self.subspace

    def signs(self, dimensionality: int) -> Tuple[float, ...]:
        """Per-original-dimension signs mapping values into min-space."""
        if self.directions is None:
            return tuple(1.0 for _ in range(dimensionality))
        if len(self.directions) != dimensionality:
            raise ValueError(
                f"preference has {len(self.directions)} directions "
                f"but data has {dimensionality} dimensions"
            )
        return tuple(d.sign for d in self.directions)

    def to_dict(self) -> dict:
        """JSON-compatible form (see :meth:`from_dict`)."""
        return {
            "directions": [d.value for d in self.directions]
            if self.directions is not None
            else None,
            "subspace": list(self.subspace) if self.subspace is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Preference":
        directions = (
            tuple(Direction(v) for v in data["directions"])
            if data.get("directions") is not None
            else None
        )
        subspace = (
            tuple(int(v) for v in data["subspace"])
            if data.get("subspace") is not None
            else None
        )
        return cls(directions=directions, subspace=subspace)

    def project(self, values: Sequence[float]) -> Tuple[float, ...]:
        """Map raw attribute values into canonical min-space coordinates.

        Applies the direction signs and drops dimensions outside the
        subspace.  After projection, plain min-dominance on the result
        is equivalent to preference dominance on the original values —
        this is how the R-tree layer supports arbitrary preferences
        without preference-aware geometry.
        """
        signs = self.signs(len(values))
        return tuple(values[dim] * signs[dim] for dim in self.effective_dims(len(values)))


def dominates_point(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Min-space dominance between two projected points: ``a ≺ b``.

    ``a ≤ b`` on every dimension and ``a < b`` on at least one.  For
    finite floats (which :class:`~repro.core.tuples.UncertainTuple`
    guarantees) a point that is ``≤`` everywhere and unequal is strictly
    smaller somewhere, so the test is one tuple comparison and one
    ``map`` — both run in C.  ``-0.0 == 0.0``, as with ``<``.  Both
    arguments must be tuples: a tuple never equals a list.
    """
    return a != b and all(map(le, a, b))


def dominates_values(
    a: Sequence[float],
    b: Sequence[float],
    preference: Optional[Preference] = None,
) -> bool:
    """Return True iff value vector ``a`` dominates ``b``.

    With no preference this is the paper's definition: ``a ≤ b`` on
    every dimension with at least one strict ``<``.  A preference
    projects both vectors once, then the same test runs.
    """
    if len(a) != len(b):
        raise ValueError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
    if preference is None:
        return dominates_point(tuple(a), tuple(b))
    return dominates_point(preference.project(a), preference.project(b))


def dominates(
    a: UncertainTuple,
    b: UncertainTuple,
    preference: Optional[Preference] = None,
) -> bool:
    """Return True iff tuple ``a`` dominates tuple ``b`` (``a ≺ b``)."""
    return dominates_values(a.values, b.values, preference)
