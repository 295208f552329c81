"""PR-tree: probability aggregates and the §6.3 dominator-product probe."""

import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Direction, Preference
from repro.core.probability import non_occurrence_product
from repro.core.tuples import UncertainTuple
from repro.index.prtree import PRTree
from repro.index.rtree import Node

from ..conftest import make_random_database


# The window query as it stood before it moved onto
# ``repro.core.dominance.dominates_point``: the method body verbatim
# (``self`` → ``tree``), with the box and point tests it called copied
# beside it.  The test below holds the new traversal to its exact bits
# and node count.


def _reference_dominators_product(
    tree: PRTree,
    target: UncertainTuple,
    floor: float = 0.0,
    exclude_key: Optional[int] = None,
) -> float:
    if exclude_key is None:
        exclude_key = target.key
    point = (
        tree.preference.project(target.values)
        if tree.preference is not None
        else tuple(target.values)
    )
    product = 1.0
    if tree.root.rect is None:
        return product
    stack: List[Node] = [tree.root]
    while stack:
        node = stack.pop()
        tree.node_accesses += 1
        rect = node.rect
        if rect is None or _disjoint_from_dominance_region(rect, point):
            continue
        # A box fully inside the *strict* dominance region is below
        # ``point`` on some dimension, so it cannot hold the target
        # itself: its whole product counts.
        if tree.store_products and _fully_inside_dominance_region(rect, point):
            product *= node.aggregate.non_occurrence
        elif node.is_leaf:
            for item in node.entries:
                if item.key == exclude_key:
                    continue
                if _point_dominates(item.values, point):
                    product *= 1.0 - item.probability
                    if product < floor:
                        return product
        else:
            stack.extend(node.entries)
        if product < floor:
            return product
    return product


def _fully_inside_dominance_region(rect, target) -> bool:
    strict = False
    for up, t in zip(rect.upper, target):
        if up > t:
            return False
        if up < t:
            strict = True
    return strict


def _disjoint_from_dominance_region(rect, target) -> bool:
    return any(lo > t for lo, t in zip(rect.lower, target))


def _point_dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


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


# A coarse grid with both signed zeros, so ties, duplicates and
# ``-0.0`` against ``0.0`` all occur.
GRID = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])
PROBS = st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95, 1.0])


@st.composite
def probe_cases(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=0, max_value=300))
    rows = draw(st.lists(st.tuples(*[GRID] * d), min_size=n, max_size=n))
    probs = draw(st.lists(PROBS, min_size=n, max_size=n))
    db = [UncertainTuple(k, row, p) for k, (row, p) in enumerate(zip(rows, probs))]
    preference = draw(
        st.sampled_from(
            [
                None,
                Preference(directions=(Direction.MAX,) + (Direction.MIN,) * (d - 1)),
                Preference(
                    directions=(Direction.MIN,) * (d - 1) + (Direction.MAX,),
                    subspace=(d - 1, 0),
                ),
            ]
        )
    )
    tree = PRTree.build(
        db,
        preference=preference,
        max_entries=draw(st.sampled_from([4, 6, 16])),
        store_products=draw(st.booleans()),
    )
    # Every stored point is a target: the inside test differs from a
    # non-strict one only at a box whose upper corner is the target.
    targets = [(t, None) for t in db]
    foreign = draw(st.lists(st.tuples(*[GRID] * d), max_size=4))
    targets += [(UncertainTuple(10_000 + i, row, 0.5), None) for i, row in enumerate(foreign)]
    if db:  # a stored point probed on behalf of another key
        targets.append((db[-1], -1))
    floor = draw(st.sampled_from([0.0, draw(st.floats(min_value=0.0, max_value=1.0))]))
    return tree, targets, floor


class TestReferenceTraversal:
    @given(probe_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_the_reference_traversal(self, case):
        tree, targets, floor = case
        for target, exclude_key in targets:
            tree.node_accesses = 0
            expected = _reference_dominators_product(
                tree, target, floor=floor, exclude_key=exclude_key
            )
            expected_accesses = tree.node_accesses
            tree.node_accesses = 0
            got = tree.dominators_product(target, floor=floor, exclude_key=exclude_key)
            assert got.hex() == expected.hex()
            assert tree.node_accesses == expected_accesses


class TestDominators:
    def test_tuples_roundtrip(self):
        db = make_random_database(80, 2, seed=11)
        tree = PRTree.build(db)
        assert {t.key for t in tree.tuples()} == {t.key for t in db}
