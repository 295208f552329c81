"""Protocol tracing."""

import asyncio

from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.site import LocalSite
from repro.net.aio import connect_async_sites
from repro.net.trace import ProtocolTracer, load_trace, summarize_trace

from ..conftest import make_random_database


def traced_run(m=3, n=180, q=0.3, seed=1):
    db = make_random_database(n, 2, seed=seed, grid=10)
    tracer = ProtocolTracer()
    sites = tracer.wrap([LocalSite(i, db[i::m]) for i in range(m)])
    result = EDSUD(sites, q).run()
    return tracer, result


class TestTracer:
    def test_records_every_protocol_phase(self):
        tracer, _ = traced_run()
        methods = {r.method for r in tracer.records}
        assert {"prepare", "pop_representative", "probe_and_prune"} <= methods

    def test_sequence_and_timestamps_monotone(self):
        tracer, _ = traced_run()
        seqs = [r.sequence for r in tracer.records]
        times = [r.timestamp for r in tracer.records]
        assert seqs == list(range(len(seqs)))
        assert times == sorted(times)

    def test_wrapping_preserves_the_answer(self):
        from repro.core.prob_skyline import prob_skyline_sfs

        db = make_random_database(180, 2, seed=2, grid=10)
        tracer = ProtocolTracer()
        sites = tracer.wrap([LocalSite(i, db[i::3]) for i in range(3)])
        result = EDSUD(sites, 0.3).run()
        assert result.answer.agrees_with(prob_skyline_sfs(db, 0.3), tol=1e-9)
        assert len(tracer) > 0

    def test_save_load_roundtrip(self, tmp_path):
        tracer, _ = traced_run(seed=3)
        path = tmp_path / "run.trace.jsonl"
        tracer.save(path)
        loaded = load_trace(path)
        assert len(loaded) == len(tracer.records)
        assert loaded[0] == tracer.records[0]
        assert loaded[-1] == tracer.records[-1]

    def test_passthrough_extra_methods(self):
        db = make_random_database(30, 2, seed=4)
        tracer = ProtocolTracer()
        (endpoint,) = tracer.wrap([LocalSite(0, db)])
        assert len(endpoint.ship_all()) == 30  # not traced, still works


class TestSummary:
    def test_summary_consistent_with_run_stats(self):
        tracer, result = traced_run(seed=5)
        summary = summarize_trace(tracer.records)
        assert summary["tuples_fetched"] == result.stats.tuples_to_server
        assert summary["broadcast_deliveries"] == result.stats.tuples_from_server
        assert summary["calls"] == len(tracer.records)
        assert set(summary["by_site"]) == {0, 1, 2}

    def test_summary_of_a_served_async_run_matches_its_stats(self, cluster):
        """`asteps()` over traced asyncio proxies: every record holds the
        awaited reply (at cd4b865 the shim read `.factor` off a coroutine
        object) and the roll-up agrees with the coordinator's books."""
        c, db = cluster

        async def scenario():
            proxies = await connect_async_sites(c.addresses)
            tracer = ProtocolTracer()
            try:
                coordinator = DSUD(tracer.wrap(proxies), 0.3, batch_size=3)
                async for _ in coordinator.asteps():
                    pass
                result = await coordinator.afinish()
                probe = await tracer.wrap(proxies)[0].probe_and_prune(db[1])
            finally:
                for proxy in proxies:
                    await proxy.close()
            return tracer, result, probe

        tracer, result, probe = asyncio.run(scenario())
        solo = DSUD(
            [LocalSite(i, db[i::3]) for i in range(3)], 0.3, batch_size=3
        ).run()
        assert [m.tuple.key for m in result.answer] == [m.tuple.key for m in solo.answer]
        assert tracer.records[-1].detail["factor"] == probe.factor
        records = tracer.records[:-1]
        summary = summarize_trace(records)
        assert summary["tuples_fetched"] == result.stats.tuples_to_server
        assert summary["broadcast_deliveries"] == result.stats.tuples_from_server
        assert summary["by_method"]["probe_and_prune_batch"] > 0
        assert summary["calls"] == result.stats.rpc_calls == len(records)
        assert set(summary["by_site"]) == {0, 1, 2}

    def test_batched_rounds_are_journalled_and_summarised(self):
        db = make_random_database(400, 2, seed=7, grid=10)
        tracer = ProtocolTracer()
        sites = [LocalSite(i, db[i::4]) for i in range(4)]
        result = DSUD(tracer.wrap(sites), 0.3, batch_size=4).run()
        summary = summarize_trace(tracer.records)
        assert summary["by_method"].get("probe_and_prune_batch", 0) > 0
        assert summary["broadcast_deliveries"] == result.stats.tuples_from_server
        pruned = sum(site.pruned_total for site in sites)
        assert pruned > 0
        assert summary["candidates_pruned_at_sites"] == pruned

    def test_empty_trace_summary(self):
        summary = summarize_trace([])
        assert summary["calls"] == 0
        assert summary["duration"] == 0.0
