"""The §5.2 rejected synopsis-feedback design."""

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.distributed.query import build_sites
from repro.distributed.synopsis import SynopsisEDSUD, build_site_synopsis
from repro.distributed.site import LocalSite

from ..conftest import make_random_database


class TestGridSynopsis:
    def make(self, n=200, seed=1, cells=4):
        db = make_random_database(n, 2, seed=seed, grid=10)
        site = LocalSite(0, db)
        site.prepare(0.2)
        return build_site_synopsis(site, cells_per_dim=cells), site

    def test_cells_cover_all_candidates(self):
        synopsis, site = self.make()
        total = sum(count for count, _mean in synopsis.cells.values())
        assert total == site.queue_size()

    def test_entry_count_bounded_by_grid(self):
        synopsis, _ = self.make(cells=4)
        assert synopsis.entry_count <= 16

    def test_empty_queue_synopsis(self):
        site = LocalSite(0, [])
        site.prepare(0.3)
        synopsis = build_site_synopsis(site)
        assert synopsis.entry_count == 0
        assert synopsis.estimated_dominated((0.0, 0.0)) == 0

    def test_cells_per_dim_validation(self):
        site = LocalSite(0, [])
        site.prepare(0.3)
        with pytest.raises(ValueError):
            build_site_synopsis(site, cells_per_dim=0)

    def test_estimated_dominated_is_conservative(self):
        """The estimate never exceeds the true dominated-count."""
        from repro.core.dominance import dominates

        synopsis, site = self.make(seed=3)
        probes = make_random_database(20, 2, seed=4, grid=10, start_key=9000)
        candidates = [c.tuple for c in site._queue]
        for probe in probes:
            truth = sum(1 for c in candidates if dominates(probe, c))
            assert synopsis.estimated_dominated(tuple(probe.values)) <= truth

    def test_origin_dominates_everything_strictly_inside(self):
        synopsis, site = self.make(seed=5)
        # A point below every candidate dominates all interior cells;
        # only candidates in the very lowest cells may be excluded by
        # the conservative boundary rule.
        reach = synopsis.estimated_dominated((-1.0, -1.0))
        assert reach >= site.queue_size() - sum(
            count
            for cell, (count, _m) in synopsis.cells.items()
            if 0 in cell
        )


class TestSynopsisEDSUD:
    def run_pair(self, seed=7, n=600, m=4, q=0.3):
        db = make_random_database(n, 2, seed=seed, grid=10)
        partitions = [db[i::m] for i in range(m)]
        plain = EDSUDRun = None
        from repro.distributed.edsud import EDSUD

        plain = EDSUD(build_sites(partitions), q).run()
        synopsis = SynopsisEDSUD(build_sites(partitions), q).run()
        central = prob_skyline_sfs(db, q)
        return plain, synopsis, central

    def test_answers_identical_to_edsud(self):
        plain, synopsis, central = self.run_pair()
        assert synopsis.answer.agrees_with(central, tol=1e-9)
        assert synopsis.answer.agrees_with(plain.answer, tol=1e-9)

    def test_synopsis_traffic_billed(self):
        _, synopsis, _ = self.run_pair(seed=8)
        assert synopsis.extra["synopsis_tuples"] > 0
        # The synopsis shipment is part of the tuple books.
        assert synopsis.stats.tuples_to_server >= synopsis.extra["synopsis_tuples"]

    def test_paper_claim_synopsis_rarely_wins(self):
        """§5.2's rejection, measured: across seeds the synopsis variant's
        total bandwidth (including the synopsis shipment) beats plain
        e-DSUD on at most a minority of instances."""
        wins = 0
        for seed in range(5):
            plain, synopsis, _ = self.run_pair(seed=100 + seed)
            if synopsis.bandwidth < plain.bandwidth:
                wins += 1
        assert wins <= 2

    def test_the_synopsis_ordering_is_live(self, monkeypatch):
        """The ablation measures a different broadcast *order*, not e-DSUD's.

        The reach estimate must actually be consulted, and on these
        seeds it must change which tuple goes out first — while Lemma 1
        keeps the answers equal.
        """
        from repro.distributed.synopsis import GridSynopsis

        consulted = []
        estimate = GridSynopsis.estimated_dominated

        def counting(synopsis, point):
            consulted.append(point)
            return estimate(synopsis, point)

        monkeypatch.setattr(GridSynopsis, "estimated_dominated", counting)
        reordered = 0
        for seed in (13, 14, 19):
            plain, synopsis, _ = self.run_pair(seed=seed)
            plain_order = [e.key for e in plain.progress.events]
            synopsis_order = [e.key for e in synopsis.progress.events]
            assert sorted(plain_order) == sorted(synopsis_order)
            assert synopsis.answer.agrees_with(plain.answer, tol=1e-9)
            reordered += plain_order != synopsis_order
        assert consulted, "selection never asked the synopses for a reach"
        assert reordered == 3

    def test_algorithm_label(self):
        _, synopsis, _ = self.run_pair(seed=9)
        assert synopsis.algorithm == "synopsis-e-DSUD"
