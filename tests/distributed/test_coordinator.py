"""Coordinator protocol behaviour, observed through recording endpoints."""

import asyncio

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.site import LocalSite
from repro.fault.retry import RetryPolicy
from repro.net.transport import RecordingEndpoint

from ..conftest import make_random_database


def recorded_run(coordinator_cls, m=4, n=240, q=0.3, seed=1, **kwargs):
    db = make_random_database(n, 2, seed=seed, grid=10)
    log = []
    sites = [
        RecordingEndpoint(LocalSite(i, db[i::m]), log=log) for i in range(m)
    ]
    coordinator = coordinator_cls(sites, q, **kwargs)
    result = coordinator.run()
    return result, log, db, coordinator


class TestConstruction:
    def test_requires_sites(self):
        with pytest.raises(ValueError):
            DSUD([], 0.3)

    def test_requires_valid_threshold(self):
        site = LocalSite(0, make_random_database(10, 2, seed=1))
        with pytest.raises(ValueError):
            DSUD([site], 0.0)
        with pytest.raises(ValueError):
            DSUD([site], 1.2)

    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_refuses_duplicate_site_ids(self, coordinator_cls):
        """Two sites sharing an id never probe each other's tuples: run
        anyway, these partitions answered 1 member where ids 0, 1, 2 answer 4."""
        db = make_random_database(90, 2, seed=1, grid=10)
        parts = [db[i::3] for i in range(3)]
        with pytest.raises(ValueError, match="duplicate site id 0"):
            coordinator_cls([LocalSite(i, p) for i, p in zip((0, 0, 1), parts)], 0.3)
        unique = coordinator_cls([LocalSite(i, p) for i, p in enumerate(parts)], 0.3)
        assert len(unique.run().answer.members) == 4


@pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
class TestProtocolInvariants:
    def test_every_site_prepared_exactly_once(self, coordinator_cls):
        _, log, _, _ = recorded_run(coordinator_cls)
        prepares = [c for c in log if c.method == "prepare"]
        assert sorted(c.site_id for c in prepares) == [0, 1, 2, 3]

    def test_feedback_never_returns_to_origin(self, coordinator_cls):
        """The Server-Delivery phase excludes the tuple's own site."""
        _, log, db, _ = recorded_run(coordinator_cls)
        origin = {}
        for call in log:
            if call.method == "pop_representative" and call.result is not None:
                origin[call.result.tuple.key] = call.site_id
        for call in log:
            if call.method == "probe_and_prune":
                key = call.args[0].key
                assert origin[key] != call.site_id

    def test_broadcast_reaches_all_other_sites(self, coordinator_cls):
        _, log, _, _ = recorded_run(coordinator_cls, m=3)
        deliveries = {}
        for call in log:
            if call.method == "probe_and_prune":
                deliveries.setdefault(call.args[0].key, set()).add(call.site_id)
        for key, sites in deliveries.items():
            assert len(sites) == 2  # m - 1

    def test_results_reported_progressively(self, coordinator_cls):
        result, _, _, _ = recorded_run(coordinator_cls)
        events = result.progress.events
        assert len(events) == result.result_count
        bandwidths = [e.tuples_transmitted for e in events]
        assert bandwidths == sorted(bandwidths)
        assert bandwidths[-1] <= result.bandwidth

    def test_bandwidth_identity(self, coordinator_cls):
        """tuples = to-server + from-server, and both directions are sane."""
        result, log, _, _ = recorded_run(coordinator_cls)
        stats = result.stats
        assert stats.tuples_transmitted == stats.tuples_to_server + stats.tuples_from_server
        pops = sum(
            1 for c in log if c.method == "pop_representative" and c.result is not None
        )
        probes = sum(1 for c in log if c.method == "probe_and_prune")
        assert stats.tuples_to_server == pops
        assert stats.tuples_from_server == probes

    def test_every_result_meets_threshold(self, coordinator_cls):
        result, _, _, _ = recorded_run(coordinator_cls, q=0.4)
        assert all(m.probability >= 0.4 for m in result.answer)

    def test_run_result_fields(self, coordinator_cls):
        result, _, db, _ = recorded_run(coordinator_cls)
        assert result.algorithm in ("DSUD", "e-DSUD")
        assert result.iterations > 0
        assert result.ceiling(4) == result.result_count * 4
        assert result.algorithm in result.summary()

    def test_site_pruning_stats_surfaced(self, coordinator_cls):
        result, log, _, _ = recorded_run(coordinator_cls)
        pruned_via_replies = sum(
            c.result.pruned for c in log if c.method == "probe_and_prune"
        )
        assert result.extra["site_pruned_total"] >= pruned_via_replies


class TestSingleSite:
    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_degenerate_single_site(self, coordinator_cls):
        db = make_random_database(100, 2, seed=2, grid=8)
        site = LocalSite(0, db)
        result = coordinator_cls([site], 0.3).run()
        central = prob_skyline_sfs(db, 0.3)
        assert result.answer.agrees_with(central, tol=1e-9)
        # With one site there is nobody to broadcast to.
        assert result.stats.tuples_from_server == 0


class TestEmptySites:
    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_all_sites_empty(self, coordinator_cls):
        sites = [LocalSite(i, []) for i in range(3)]
        result = coordinator_cls(sites, 0.3).run()
        assert result.result_count == 0
        assert result.bandwidth == 0

    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_some_sites_empty(self, coordinator_cls):
        db = make_random_database(90, 2, seed=3, grid=8)
        sites = [LocalSite(0, db), LocalSite(1, []), LocalSite(2, [])]
        result = coordinator_cls(sites, 0.3).run()
        central = prob_skyline_sfs(db, 0.3)
        assert result.answer.agrees_with(central, tol=1e-9)


class TestSyncPump:
    def test_steps_can_be_drawn_inside_a_running_event_loop(self):
        """``steps()`` is genuinely synchronous — plain calls, no
        ``asyncio.run`` underneath — so an ``async def`` may draw it
        (the solo benchmark workload does exactly this)."""
        db = make_random_database(120, 2, seed=4, grid=10)
        sites = [LocalSite(i, db[i::3]) for i in range(3)]

        async def drive():
            coordinator = DSUD(sites, 0.3, retry_policy=RetryPolicy(max_attempts=2))
            for _ in coordinator.steps():
                await asyncio.sleep(0)
            return coordinator.finish()

        result = asyncio.run(drive())
        assert result.answer.agrees_with(prob_skyline_sfs(db, 0.3), tol=1e-9)
