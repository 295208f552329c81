"""The uniform grid index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Preference
from repro.core.probability import non_occurrence_product
from repro.core.tuples import UncertainTuple
from repro.index.grid import GridIndex

from ..conftest import make_random_database


class TestConstruction:
    def test_build_and_size(self):
        db = make_random_database(300, 2, seed=1)
        grid = GridIndex.build(db)
        assert len(grid) == 300
        assert {t.key for t in grid.tuples()} == {t.key for t in db}
        grid.check_invariants()

    def test_cells_per_dim_validation(self):
        with pytest.raises(ValueError):
            GridIndex(cells_per_dim=0)

    def test_empty_grid(self):
        grid = GridIndex.build([])
        assert len(grid) == 0
        assert grid.dominators_product(UncertainTuple(0, (1.0, 1.0), 0.5)) == 1.0


class TestMutation:
    def test_add_remove_roundtrip(self):
        db = make_random_database(200, 2, seed=2)
        grid = GridIndex.build(db[:100])
        for t in db[100:]:
            grid.add(t)
        grid.check_invariants()
        for t in db[:150]:
            assert grid.remove(t)
        grid.check_invariants()
        assert len(grid) == 50

    def test_remove_missing(self):
        grid = GridIndex.build(make_random_database(20, 2, seed=3))
        assert not grid.remove(UncertainTuple(9999, (0.5, 0.5), 0.5))

    def test_add_outside_build_domain_clamps(self):
        db = make_random_database(50, 2, seed=4)
        grid = GridIndex.build(db)
        outlier = UncertainTuple(9999, (99.0, -99.0), 0.5)
        grid.add(outlier)
        grid.check_invariants()
        assert 9999 in {t.key for t in grid.tuples()}

    def test_add_to_empty_grid(self):
        grid = GridIndex()
        t = UncertainTuple(0, (1.0, 2.0), 0.5)
        grid.add(t)
        assert len(grid) == 1
        grid.check_invariants()


class TestProbe:
    @pytest.mark.parametrize("cells", [1, 4, 16, 64])
    def test_matches_linear_scan(self, cells):
        db = make_random_database(300, 2, seed=5, grid=12)
        index = GridIndex.build(db, cells_per_dim=cells)
        for t in db[::23]:
            expected = non_occurrence_product(t, db)
            assert index.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_foreign_probe_and_floor(self):
        db = make_random_database(400, 2, seed=6, grid=8)
        index = GridIndex.build(db)
        foreign = UncertainTuple(7777, (6.0, 6.0), 0.9)
        exact = non_occurrence_product(foreign, db)
        assert index.dominators_product(foreign) == pytest.approx(exact, abs=1e-12)
        floored = index.dominators_product(foreign, floor=0.5)
        if exact >= 0.5:
            assert floored == pytest.approx(exact)
        else:
            assert floored < 0.5

    def test_probe_after_outlier_insertions(self):
        db = make_random_database(200, 2, seed=7, grid=10)
        index = GridIndex.build(db)
        outliers = [
            UncertainTuple(9000 + i, (-1.0 - i, -1.0), 0.5) for i in range(5)
        ]
        for t in outliers:
            index.add(t)
        live = db + outliers
        for t in live[::17]:
            expected = non_occurrence_product(t, live)
            assert index.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    def test_with_preference(self):
        db = make_random_database(200, 2, seed=8, grid=10)
        pref = Preference.of("min,max")
        index = GridIndex.build(db, preference=pref)
        for t in db[::19]:
            expected = non_occurrence_product(t, db, pref)
            assert index.dominators_product(t) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([2, 5, 10]))
    @settings(max_examples=25, deadline=None)
    def test_probe_equivalence_property(self, seed, cells):
        db = make_random_database(60, 2, seed=seed, grid=6)
        index = GridIndex.build(db, cells_per_dim=cells)
        rng = random.Random(seed)
        for _ in range(5):
            t = rng.choice(db)
            expected = non_occurrence_product(t, db)
            assert index.dominators_product(t) == pytest.approx(expected, abs=1e-12)


class TestSiteIntegration:
    def test_grid_backed_sites_answer_correctly(self):
        from repro.core.prob_skyline import prob_skyline_sfs
        from repro.distributed.query import distributed_skyline
        from repro.distributed.site import SiteConfig

        db = make_random_database(400, 2, seed=9, grid=10)
        partitions = [db[i::4] for i in range(4)]
        central = prob_skyline_sfs(db, 0.3)
        result = distributed_skyline(
            partitions, 0.3, algorithm="edsud",
            site_config=SiteConfig(kernel="grid"),
        )
        assert result.answer.agrees_with(central, tol=1e-9)
