"""Unit and property tests for dominance, preferences, and subspaces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dominance import (
    Direction,
    Preference,
    dominates,
    dominates_point,
    dominates_values,
)
from repro.core.tuples import UncertainTuple

vectors = st.lists(
    st.integers(min_value=0, max_value=5).map(float), min_size=2, max_size=2
)
vectors3 = st.lists(
    st.integers(min_value=0, max_value=5).map(float), min_size=3, max_size=3
)


class TestBasicDominance:
    def test_strict_dominance(self):
        assert dominates_values((1, 1), (2, 2))

    def test_partial_dominance(self):
        assert dominates_values((1, 2), (1, 3))

    def test_equal_values_do_not_dominate(self):
        assert not dominates_values((1, 2), (1, 2))

    def test_incomparable(self):
        assert not dominates_values((1, 3), (3, 1))
        assert not dominates_values((3, 1), (1, 3))

    def test_dimensionality_mismatch(self):
        with pytest.raises(ValueError):
            dominates_values((1,), (1, 2))

    def test_tuple_level_dominance(self):
        a = UncertainTuple(0, (1.0, 1.0), 0.5)
        b = UncertainTuple(1, (2.0, 2.0), 0.5)
        assert dominates(a, b)
        assert not dominates(b, a)

    @given(vectors, vectors)
    def test_antisymmetry(self, a, b):
        assert not (dominates_values(a, b) and dominates_values(b, a))

    @given(vectors)
    def test_irreflexive(self, a):
        assert not dominates_values(a, a)

    @given(vectors, vectors, vectors)
    def test_transitivity(self, a, b, c):
        if dominates_values(a, b) and dominates_values(b, c):
            assert dominates_values(a, c)


class TestPreference:
    def test_max_direction_flips_comparison(self):
        pref = Preference.of("min,max")
        # cheaper AND higher volume wins
        assert dominates_values((1, 10), (2, 5), pref)
        assert not dominates_values((1, 5), (2, 10), pref)

    def test_of_parses_directions(self):
        pref = Preference.of("min, MAX")
        assert pref.directions == (Direction.MIN, Direction.MAX)

    def test_of_rejects_unknown(self):
        with pytest.raises(ValueError):
            Preference.of("min,sideways")

    def test_minimize_factory(self):
        pref = Preference.minimize(3)
        assert pref.signs(3) == (1.0, 1.0, 1.0)

    def test_direction_count_must_match_data(self):
        pref = Preference.of("min,max")
        with pytest.raises(ValueError):
            dominates_values((1, 2, 3), (2, 3, 4), pref)

    def test_subspace_ignores_other_dimensions(self):
        pref = Preference(subspace=(0,))
        assert dominates_values((1, 99), (2, 0), pref)

    def test_subspace_equality_is_non_dominance(self):
        pref = Preference(subspace=(1,))
        assert not dominates_values((0, 5), (9, 5), pref)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            Preference(subspace=())
        with pytest.raises(ValueError):
            Preference(subspace=(0, 0))
        with pytest.raises(ValueError):
            Preference(subspace=(-1,))

    def test_subspace_out_of_range_detected_at_use(self):
        pref = Preference(subspace=(5,))
        with pytest.raises(ValueError):
            dominates_values((1, 2), (3, 4), pref)

    def test_project_maps_to_min_space(self):
        pref = Preference(
            directions=(Direction.MIN, Direction.MAX), subspace=(1, 0)
        )
        assert pref.project((3.0, 7.0)) == (-7.0, 3.0)

    def test_projection_equivalence(self):
        """Dominance under a preference == plain dominance after projection."""
        pref = Preference(directions=(Direction.MAX, Direction.MIN, Direction.MAX),
                          subspace=(0, 2))
        pairs = [((1, 2, 3), (3, 2, 1)), ((5, 0, 5), (4, 9, 4)), ((2, 2, 2), (2, 2, 2))]
        for a, b in pairs:
            assert dominates_values(a, b, pref) == dominates_values(
                pref.project(a), pref.project(b)
            )

    @given(vectors3, vectors3)
    def test_projection_equivalence_property(self, a, b):
        pref = Preference(directions=(Direction.MIN, Direction.MAX, Direction.MIN),
                          subspace=(2, 1))
        assert dominates_values(a, b, pref) == dominates_values(
            pref.project(a), pref.project(b)
        )


class TestPreferenceSerialization:
    @pytest.mark.parametrize(
        "pref",
        [
            Preference(),
            Preference.of("min,max"),
            Preference(subspace=(2, 0)),
            Preference(directions=(Direction.MAX, Direction.MIN), subspace=(1,)),
        ],
    )
    def test_dict_roundtrip(self, pref):
        restored = Preference.from_dict(pref.to_dict())
        assert restored == pref

    def test_dict_is_json_compatible(self):
        import json

        pref = Preference.of("min,max")
        json.dumps(pref.to_dict())  # must not raise


class TestRegionDominance:
    """A point dominates every point of a box iff it dominates the box's
    lower corner: BBS's subtree pruning runs ``dominates_point`` on it."""

    def test_point_dominating_whole_box(self):
        assert dominates_point((0, 0), (1, 1))

    def test_point_equal_to_lower_corner_does_not(self):
        assert not dominates_point((1, 1), (1, 1))

    def test_point_below_on_one_dim_suffices(self):
        assert dominates_point((0, 1), (1, 1))

    def test_point_above_lower_fails(self):
        assert not dominates_point((2, 0), (1, 1))

    @given(vectors, vectors, vectors)
    def test_region_dominance_implies_point_dominance(self, p, lo, hi):
        lower = tuple(min(a, b) for a, b in zip(lo, hi))
        upper = tuple(max(a, b) for a, b in zip(lo, hi))
        if dominates_point(tuple(p), lower):
            # every corner of the box must be dominated; check extremes
            assert dominates_values(p, lower)
            assert dominates_values(p, upper)


def _reference_point_dominates(a, b):
    """The hand-rolled loop every dominance test in the library used to be."""
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


# A coarse grid with both signed zeros, so ties and ``-0.0`` against
# ``0.0`` are common.
grid = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def point_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    a = draw(st.tuples(*[grid] * d))
    b = draw(st.tuples(*[grid] * d))
    return a, b


class TestDominatesPoint:
    @given(point_pairs())
    def test_matches_the_reference_loop(self, pair):
        a, b = pair
        assert dominates_point(a, b) == _reference_point_dominates(a, b)

    def test_signed_zeros_tie(self):
        assert not dominates_point((-0.0, 1.0), (0.0, 1.0))
        assert dominates_point((-0.0, 0.5), (0.0, 1.0))
