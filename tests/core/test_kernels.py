"""Property tests: the columnar kernels agree with the scalar reference.

The vectorized paths (ColumnStore + the columnar SFS) must reproduce
the scalar arithmetic within 1e-9 on *any* input — random preferences
(directions and subspaces), duplicate coordinates (the grid strategy
forces ties), and boundary probabilities (exactly 1.0 and near-zero).
The scalar reference folds its factors in another order, hence the
tolerance; a single and a batched ``ColumnStore`` probe fold the same
factors in the same row order, so those two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dominance import Direction, Preference, dominates, dominates_values
from repro.core.kernels import ColumnStore, dominance_matrix, prob_skyline_sfs
from repro.core.prob_skyline import all_skyline_probabilities
from repro.core.prob_skyline import prob_skyline_sfs as scalar_sfs
from repro.core.probability import non_occurrence_product
from repro.core.tuples import UncertainTuple

from ..conftest import make_random_database

TOL = 1e-9


def preferences(d: int) -> st.SearchStrategy:
    """None, pure directions, pure subspace, or both — for dimensionality d."""
    directions = st.one_of(
        st.none(),
        st.lists(
            st.sampled_from([Direction.MIN, Direction.MAX]), min_size=d, max_size=d
        ).map(tuple),
    )
    subspace = st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=0, max_value=d - 1),
            min_size=1,
            max_size=d,
            unique=True,
        ).map(tuple),
    )
    return st.builds(Preference, directions=directions, subspace=subspace)


@st.composite
def database_and_preference(draw):
    """Small databases on an integer grid (ties guaranteed) + preference.

    Probabilities mix the generic (0, 1] range with the boundary values
    the masked products must survive: exactly 1.0 (a dominating certain
    tuple zeroes every product below it) and near-zero.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    boundary = st.sampled_from([1.0, 1e-12, 0.5])
    generic = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=6).map(float),
                    min_size=d,
                    max_size=d,
                ),
                st.one_of(generic, boundary),
            ),
            min_size=0,
            max_size=24,
        )
    )
    db = [UncertainTuple(i, tuple(v), p) for i, (v, p) in enumerate(rows)]
    pref = draw(preferences(d))
    return d, db, pref


class TestDominatorKernels:
    @given(database_and_preference())
    def test_dominators_mask_matches_scalar_dominates(self, case):
        _d, db, pref = case
        store = ColumnStore.from_tuples(db, pref)
        for t in db:
            mask = store.dominators_mask(store.project_point(t, pref), exclude_key=t.key)
            expected = [
                other.key != t.key and dominates(other, t, pref) for other in db
            ]
            assert mask.tolist() == expected

    @given(database_and_preference())
    def test_dominator_product_matches_non_occurrence_product(self, case):
        _d, db, pref = case
        store = ColumnStore.from_tuples(db, pref)
        for t in db:
            got = store.dominator_product(
                store.project_point(t, pref), exclude_key=t.key
            )
            want = non_occurrence_product(t, db, pref)
            assert got == pytest.approx(want, abs=TOL)

    @given(database_and_preference())
    def test_batched_products_match_single_probes(self, case):
        _d, db, pref = case
        if not db:
            return
        store = ColumnStore.from_tuples(db, pref)
        points = np.stack([store.project_point(t, pref) for t in db])
        batched = store.dominator_products(
            points, exclude_keys=[t.key for t in db], block=3
        )
        for t, got in zip(db, batched):
            want = store.dominator_product(
                store.project_point(t, pref), exclude_key=t.key
            )
            assert float(got).hex() == want.hex()

    def test_exclude_key_none_keeps_every_dominator(self):
        db = make_random_database(40, 2, seed=3, grid=5)
        store = ColumnStore.from_tuples(db)
        foreign = UncertainTuple(10_000, (3.0, 3.0), 0.5)
        point = store.project_point(foreign)
        with_none = store.dominator_product(point)
        batched = store.dominator_products(point.reshape(1, -1))[0]
        want = non_occurrence_product(foreign, db)
        assert with_none == pytest.approx(want, abs=TOL)
        assert float(batched).hex() == with_none.hex()
        # A stored key of -1 is a key like any other: None spares it.
        keyed = ColumnStore.from_tuples(
            [UncertainTuple(-1, (0.0, 0.0), 0.5), UncertainTuple(2, (1.0, 1.0), 0.5)]
        )
        probe = np.array([[3.0, 3.0], [3.0, 3.0]])
        assert keyed.dominator_product(probe[0]) == 0.25
        assert keyed.dominator_products(probe, exclude_keys=[None, -1]).tolist() == [0.25, 0.5]

    @given(database_and_preference(), st.data())
    def test_dominance_matrix_matches_pairwise_dominates_values(self, case, data):
        _d, db, pref = case
        if not db:
            return
        # Every stored row probed again, some twice: equal rows on the
        # integer grid exercise the strict half of the test.
        probes = db + data.draw(st.lists(st.sampled_from(db), max_size=6))
        got = dominance_matrix(
            ColumnStore.from_tuples(db, pref).values,
            ColumnStore.from_tuples(probes, pref).values,
        )
        assert got.shape == (len(db), len(probes))
        expected = [
            [dominates_values(s.values, t.values, pref) for t in probes] for s in db
        ]
        assert got.tolist() == expected

    def test_empty_store_is_neutral(self):
        store = ColumnStore.from_tuples([])
        assert len(store) == 0
        point = np.zeros(0)
        assert store.dominators_mask(point).size == 0
        assert store.dominator_product(point) == 1.0
        assert store.dominator_products(np.zeros((3, 0))).tolist() == [1.0] * 3


class TestColumnarSFS:
    @given(
        database_and_preference(),
        st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
    )
    def test_matches_quadratic_reference(self, case, threshold):
        _d, db, pref = case
        answer = prob_skyline_sfs(db, threshold, pref)
        exact = all_skyline_probabilities(db, pref)
        expected_keys = {k for k, p in exact.items() if p >= threshold}
        got = answer.probabilities()
        assert set(got) == expected_keys
        for key, p in got.items():
            assert p == pytest.approx(exact[key], abs=TOL)

    @given(
        database_and_preference(),
        st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
    )
    def test_matches_scalar_sfs(self, case, threshold):
        _d, db, pref = case
        vec = prob_skyline_sfs(db, threshold, pref)
        ref = scalar_sfs(db, threshold, pref)
        assert vec.agrees_with(ref, tol=TOL)

    def test_tiny_block_size_preserves_early_exit_answer(self):
        db = make_random_database(200, 3, seed=5, grid=6)
        a = prob_skyline_sfs(db, 0.3, block=1)
        b = prob_skyline_sfs(db, 0.3, block=10_000)
        assert a.agrees_with(b, tol=TOL)
        assert a.agrees_with(scalar_sfs(db, 0.3), tol=TOL)
