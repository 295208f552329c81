"""PR-tree: probability aggregates and the §6.3 dominator-product probe."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Preference
from repro.core.probability import non_occurrence_product
from repro.core.tuples import UncertainTuple
from repro.index.prtree import PRTree

from ..conftest import make_random_database


class TestAggregates:
    def test_p1_p2_match_paper_semantics(self):
        """P1 = min, P2 = max occurrence probability under each entry (Fig. 5)."""
        db = [
            UncertainTuple(0, (0.0, 0.0), 0.6),
            UncertainTuple(1, (0.1, 0.1), 0.4),
            UncertainTuple(2, (0.2, 0.2), 0.2),
        ]
        tree = PRTree.build(db)
        assert tree.root.aggregate.p_min == pytest.approx(0.2)
        assert tree.root.aggregate.p_max == pytest.approx(0.6)

    def test_aggregates_maintained_through_mutation(self):
        db = make_random_database(300, 2, seed=1)
        tree = PRTree(max_entries=6)
        for t in db:
            tree.add(t)
        tree.check_invariants()
        for t in db[:150]:
            assert tree.remove(t)
        tree.check_invariants()
        live = db[150:]
        assert tree.root.aggregate.p_min == pytest.approx(
            min(t.probability for t in live)
        )
        assert tree.root.aggregate.p_max == pytest.approx(
            max(t.probability for t in live)
        )

    def test_store_products_off_leaves_products_neutral(self):
        db = make_random_database(100, 2, seed=2)
        tree = PRTree.build(db, store_products=False)
        tree.check_invariants()
        assert tree.root.aggregate.non_occurrence == 1.0


class TestDominatorsProduct:
    @pytest.mark.parametrize("store_products", [True, False])
    def test_matches_linear_scan(self, store_products):
        db = make_random_database(400, 2, seed=3, grid=12)
        tree = PRTree.build(db, store_products=store_products)
        for t in db[::17]:
            expected = non_occurrence_product(t, db)
            assert tree.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_excludes_target_itself(self):
        db = [UncertainTuple(0, (1.0, 1.0), 0.5), UncertainTuple(1, (1.0, 1.0), 0.5)]
        tree = PRTree.build(db)
        # identical points never dominate each other
        assert tree.dominators_product(db[0]) == 1.0

    def test_foreign_tuple_probe(self):
        db = make_random_database(200, 2, seed=4, grid=10)
        tree = PRTree.build(db)
        foreign = UncertainTuple(5555, (5.0, 5.0), 0.7)
        expected = non_occurrence_product(foreign, db)
        assert tree.dominators_product(foreign) == pytest.approx(expected, abs=1e-12)

    def test_floor_early_exit_upper_bounds(self):
        db = make_random_database(500, 2, seed=5, grid=5)
        tree = PRTree.build(db)
        for t in db[::23]:
            exact = non_occurrence_product(t, db)
            floored = tree.dominators_product(t, floor=0.3)
            if exact >= 0.3:
                assert floored == pytest.approx(exact, abs=1e-12)
            else:
                assert floored < 0.3

    def test_with_max_preference(self):
        db = make_random_database(200, 2, seed=6, grid=10)
        pref = Preference.of("min,max")
        tree = PRTree.build(db, preference=pref)
        for t in db[::13]:
            expected = non_occurrence_product(t, db, pref)
            assert tree.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_with_subspace_preference(self):
        db = make_random_database(200, 3, seed=7, grid=10)
        pref = Preference(subspace=(0, 2))
        tree = PRTree.build(db, preference=pref)
        for t in db[::13]:
            expected = non_occurrence_product(t, db, pref)
            assert tree.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_probe_after_mutations(self):
        db = make_random_database(300, 2, seed=8, grid=10)
        tree = PRTree.build(db, max_entries=6)
        removed = db[:100]
        for t in removed:
            tree.remove(t)
        extra = make_random_database(50, 2, seed=9, grid=10, start_key=5000)
        for t in extra:
            tree.add(t)
        live = db[100:] + extra
        for t in live[::19]:
            expected = non_occurrence_product(t, live)
            assert tree.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_probe_equivalence_property(self, seed, store_products):
        db = make_random_database(60, 2, seed=seed, grid=6)
        tree = PRTree.build(db, store_products=store_products, max_entries=4)
        rng = random.Random(seed)
        for _ in range(5):
            t = rng.choice(db)
            expected = non_occurrence_product(t, db)
            assert tree.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_node_access_counter_advances(self):
        db = make_random_database(200, 2, seed=10)
        tree = PRTree.build(db)
        before = tree.node_accesses
        tree.dominators_product(db[0])
        assert tree.node_accesses > before


class TestDominators:
    def test_tuples_roundtrip(self):
        db = make_random_database(80, 2, seed=11)
        tree = PRTree.build(db)
        assert {t.key for t in tree.tuples()} == {t.key for t in db}
