"""MBR geometry unit and property tests."""

from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dominance import dominates_point
from repro.index.geometry import Rect

coords = st.lists(st.integers(min_value=-5, max_value=5).map(float), min_size=2, max_size=2)


def rect_from(a, b):
    lower = tuple(min(x, y) for x, y in zip(a, b))
    upper = tuple(max(x, y) for x, y in zip(a, b))
    return Rect(lower, upper)


class TestConstruction:
    def test_valid(self):
        r = Rect((0.0, 0.0), (1.0, 2.0))
        assert r.dimensionality == 2

    def test_degenerate_point(self):
        r = Rect.from_point((3.0, 4.0))
        assert r.lower == r.upper == (3.0, 4.0)
        assert r.area() == 0.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Rect((1.0,), (0.0,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0, 2.0))


class TestMetrics:
    def test_area(self):
        assert Rect((0.0, 0.0), (2.0, 3.0)).area() == pytest.approx(6.0)

    def test_margin(self):
        assert Rect((0.0, 0.0), (2.0, 3.0)).margin() == pytest.approx(5.0)

    def test_enlargement(self):
        base = Rect((0.0, 0.0), (1.0, 1.0))
        other = Rect((2.0, 2.0), (3.0, 3.0))
        # union is [0,3]^2 with area 9
        assert base.enlargement(other) == pytest.approx(8.0)

    def test_enlargement_zero_when_contained(self):
        base = Rect((0.0, 0.0), (4.0, 4.0))
        inner = Rect((1.0, 1.0), (2.0, 2.0))
        assert base.enlargement(inner) == 0.0

    def test_min_coordinate_sum_handles_negative_space(self):
        r = Rect((-3.0, 1.0), (0.0, 5.0))
        assert r.min_coordinate_sum() == pytest.approx(-2.0)


class TestUnion:
    def test_union_of_multiple(self):
        r = Rect.union_of([Rect.from_point((0, 0)), Rect.from_point((2, 1)),
                           Rect.from_point((1, 3))])
        assert r == Rect((0.0, 0.0), (2.0, 3.0))

    def test_union_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.union_of([])

    @given(coords, coords, coords, coords)
    def test_union_contains_both(self, a, b, c, d):
        r1, r2 = rect_from(a, b), rect_from(c, d)
        u = r1.union(r2)
        assert u.contains_rect(r1) and u.contains_rect(r2)

    @given(coords, coords, coords, coords)
    def test_union_commutative(self, a, b, c, d):
        r1, r2 = rect_from(a, b), rect_from(c, d)
        assert r1.union(r2) == r2.union(r1)


class TestPredicates:
    def test_intersects_touching_edges(self):
        assert Rect((0.0,), (1.0,)).intersects(Rect((1.0,), (2.0,)))

    def test_disjoint(self):
        assert not Rect((0.0,), (1.0,)).intersects(Rect((1.5,), (2.0,)))

    def test_contains_point_boundary(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.contains_point((1.0, 0.0))
        assert not r.contains_point((1.1, 0.0))

    @given(coords, coords, coords, coords)
    def test_intersects_symmetric(self, a, b, c, d):
        r1, r2 = rect_from(a, b), rect_from(c, d)
        assert r1.intersects(r2) == r2.intersects(r1)


def fully_inside(r, target):
    """The window query's inside test: the upper corner dominates ``target``."""
    return dominates_point(r.upper, tuple(target))


def disjoint(r, target):
    """The window query's skip test: the lower corner exceeds ``target`` somewhere."""
    return not all(map(le, r.lower, target))


class TestDominanceRegionPredicates:
    def test_fully_inside(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert fully_inside(r, (2.0, 2.0))
        assert fully_inside(r, (1.0, 2.0))  # tie on one dim OK

    def test_equal_upper_not_fully_inside(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert not fully_inside(r, (1.0, 1.0))

    def test_disjoint_from_region(self):
        r = Rect((3.0, 0.0), (4.0, 1.0))
        assert disjoint(r, (2.0, 9.0))

    def test_boundary_overlap_not_disjoint(self):
        # lower corner exactly at the target: only equal points, but the
        # conservative test must keep it (leaf check refines).
        r = Rect((2.0, 2.0), (3.0, 3.0))
        assert not disjoint(r, (2.0, 2.0))

    @given(coords, coords, coords)
    def test_fully_inside_never_contains_the_target(self, a, b, target):
        # Why a window query may take a fully-inside subtree's whole
        # product without looking for the target's own key in it.
        r = rect_from(a, b)
        if fully_inside(r, target):
            assert not r.contains_point(target)

    @given(coords, coords, coords)
    def test_predicates_never_both_true(self, a, b, target):
        r = rect_from(a, b)
        assert not (fully_inside(r, target) and disjoint(r, target))
