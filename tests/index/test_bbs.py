"""BBS probabilistic skyline over the PR-tree (§6.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Direction, Preference
from repro.core.prob_skyline import prob_skyline_brute_force
from repro.core.tuples import UncertainTuple
from repro.index.bbs import bbs_prob_skyline, bbs_prob_skyline_progressive
from repro.index.prtree import PRTree

from ..conftest import make_random_database


class TestCorrectness:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.6, 0.9, 1.0])
    def test_matches_brute_force(self, q):
        db = make_random_database(300, 2, seed=1, grid=10)
        tree = PRTree.build(db)
        assert bbs_prob_skyline(tree, q).agrees_with(prob_skyline_brute_force(db, q))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dimensionalities(self, d):
        db = make_random_database(200, d, seed=d, grid=8)
        tree = PRTree.build(db)
        assert bbs_prob_skyline(tree, 0.3).agrees_with(
            prob_skyline_brute_force(db, 0.3)
        )

    def test_empty_tree(self):
        assert len(bbs_prob_skyline(PRTree(), 0.5)) == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            bbs_prob_skyline(PRTree(), 0.0)

    def test_with_preference(self):
        db = make_random_database(200, 2, seed=5, grid=8)
        pref = Preference.of("max,min")
        tree = PRTree.build(db, preference=pref)
        assert bbs_prob_skyline(tree, 0.3).agrees_with(
            prob_skyline_brute_force(db, 0.3, pref)
        )

    def test_without_product_aggregate(self):
        db = make_random_database(200, 2, seed=6, grid=8)
        tree = PRTree.build(db, store_products=False)
        assert bbs_prob_skyline(tree, 0.3).agrees_with(
            prob_skyline_brute_force(db, 0.3)
        )

    def test_after_dynamic_construction(self):
        db = make_random_database(250, 2, seed=7, grid=8)
        tree = PRTree(max_entries=5)
        for t in db:
            tree.add(t)
        assert bbs_prob_skyline(tree, 0.3).agrees_with(
            prob_skyline_brute_force(db, 0.3)
        )

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.2, 0.4, 0.7]),
           st.lists(st.sampled_from(list(Direction)), min_size=3, max_size=3),
           st.sampled_from([None, (0, 1), (2, 0), (1,), (2, 1, 0)]),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed, q, directions, subspace, store_products):
        db = make_random_database(70, 3, seed=seed, grid=6)
        pref = Preference(directions=tuple(directions), subspace=subspace)
        tree = PRTree.build(
            db, preference=pref, max_entries=4, store_products=store_products
        )
        assert bbs_prob_skyline(tree, q).agrees_with(
            prob_skyline_brute_force(db, q, pref)
        )


class TestProgressiveness:
    def test_yields_in_mindist_order(self):
        db = make_random_database(300, 2, seed=8, grid=12)
        tree = PRTree.build(db)
        sums = [
            sum(m.tuple.values)
            for m in bbs_prob_skyline_progressive(tree, 0.3)
        ]
        assert sums == sorted(sums)

    def test_first_result_without_full_consumption(self):
        db = make_random_database(500, 2, seed=9)
        tree = PRTree.build(db)
        gen = bbs_prob_skyline_progressive(tree, 0.2)
        first = next(gen)
        assert first.probability >= 0.2

    def test_low_probability_subtrees_pruned(self):
        """A cluster of sub-threshold tuples should be skipped wholesale."""
        dominators = [UncertainTuple(0, (0.0, 0.0), 0.99)]
        chaff = [
            UncertainTuple(1 + i, (5.0 + (i % 10) * 0.01, 5.0 + (i // 10) * 0.01), 0.9)
            for i in range(100)
        ]
        tree = PRTree.build(dominators + chaff, max_entries=8)
        tree.node_accesses = 0
        answer = bbs_prob_skyline(tree, 0.5)
        assert answer.keys() == [0]
        # The chaff cluster is dominated by a 0.99 tuple: bound = 0.9 *
        # 0.01 << q, so its subtrees never enter the heap.  Accesses
        # stay far below the full node count.
        assert tree.node_accesses < 40


def _leaves(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node
        else:
            stack.extend(node.entries)


class TestCostModel:
    """Each object is tested once, at dequeue; only survivors get a §6.3 query."""

    @staticmethod
    def _probed(tree, monkeypatch):
        """Keys of the targets ``tree``'s window queries are asked about."""
        probed = []
        window_query = tree.dominators_product

        def counting(target, *args, **kwargs):
            probed.append(target.key)
            return window_query(target, *args, **kwargs)

        monkeypatch.setattr(tree, "dominators_product", counting)
        return probed

    def test_dominated_entries_get_no_window_query(self, monkeypatch):
        dominator = [UncertainTuple(0, (0.0, 0.0), 0.99)]
        # Seven chaff entries share the dominator's leaf; the rest fill
        # leaves of their own.
        near = [
            UncertainTuple(1 + i, (1.0 + i * 0.01, 1.0 + i * 0.01), 0.9)
            for i in range(7)
        ]
        far = [
            UncertainTuple(100 + i, (5.0 + (i % 10) * 0.01, 5.0 + (i // 10) * 0.01), 0.9)
            for i in range(56)
        ]
        tree = PRTree.build(dominator + near + far, max_entries=8)
        assert [0, 1, 2, 3, 4, 5, 6, 7] in [
            sorted(item.key for item in leaf.entries) for leaf in _leaves(tree)
        ]
        probed = self._probed(tree, monkeypatch)
        assert bbs_prob_skyline(tree, 0.5).keys() == [0]
        assert probed == [0]

    def test_sub_threshold_entries_get_no_window_query(self, monkeypatch):
        dominator = [UncertainTuple(0, (0.0, 0.0), 0.99)]
        # All below q: some dominated, some that nothing dominates.
        dominated = [UncertainTuple(1 + i, (1.0 + i, 1.0 + i), 0.3) for i in range(20)]
        free = [UncertainTuple(100 + i, (-1.0 - i, 50.0 + i), 0.3) for i in range(20)]
        tree = PRTree.build(dominator + dominated + free, max_entries=8)
        probed = self._probed(tree, monkeypatch)
        assert bbs_prob_skyline(tree, 0.5).keys() == [0]
        assert probed == [0]
