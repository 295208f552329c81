"""End-to-end pipelines across package boundaries.

Each test walks a realistic multi-stage scenario through the public
API: generate → persist → load → query → compare transports/algorithms
→ maintain under updates → stream.  Where unit tests pin one module,
these pin the seams between them.
"""

import random

from repro import EDSUD, IncrementalMaintainer, LatencyModel, Preference, UncertainTuple, build_sites, distributed_skyline, load_tuples, make_nyse_workload, make_synthetic_workload, prob_skyline_sfs, save_tuples
from repro.net.sockets import host_sites
from repro.stream import ContinuousCoordinator, CountWindow, StandingQuery, StreamSite

from .conftest import query_over_tcp


class TestPersistenceToQueryPipeline:
    def test_generate_save_load_query(self, tmp_path):
        workload = make_synthetic_workload("anticorrelated", n=1200, d=3,
                                           sites=4, seed=1)
        path = tmp_path / "relation.csv"
        save_tuples(path, workload.global_database)
        reloaded = load_tuples(path)
        assert reloaded == workload.global_database

        partitions = [reloaded[i::4] for i in range(4)]
        result = distributed_skyline(partitions, 0.3, algorithm="edsud")
        central = prob_skyline_sfs(reloaded, 0.3)
        assert result.answer.agrees_with(central, tol=1e-9)


class TestTransportParity:
    def test_tcp_and_inprocess_runs_are_identical(self):
        """Same data, same algorithm: byte-identical answers and
        identical bandwidth books over both transports."""
        workload = make_nyse_workload(n=1500, sites=3, seed=2)
        local = distributed_skyline(
            workload.partitions, 0.3, algorithm="edsud",
            preference=workload.preference,
        )
        with host_sites(workload.partitions, preference=workload.preference) as c:
            remote = query_over_tcp(
                c.addresses, lambda proxies: EDSUD(proxies, 0.3, workload.preference)
            )
        assert remote.answer.agrees_with(local.answer, tol=1e-12)
        assert remote.bandwidth == local.bandwidth
        assert remote.iterations == local.iterations


class TestQueryThenMaintainThenStream:
    def test_full_lifecycle(self):
        workload = make_synthetic_workload(n=500, d=2, sites=3, seed=4)

        # 1. One-shot query.
        snapshot = distributed_skyline(workload.partitions, 0.3)

        # 2. Standing maintenance starts from the same data and answer.
        maintainer = IncrementalMaintainer(
            build_sites(workload.partitions), 0.3
        )
        assert maintainer.skyline().agrees_with(snapshot.answer, tol=1e-9)

        # 3. A burst of updates, then equality with a fresh query.
        rng = random.Random(5)
        live = [list(p) for p in workload.partitions]
        for key in range(10_000, 10_030):
            site_id = rng.randrange(3)
            t = UncertainTuple(key, (rng.random(), rng.random()),
                               rng.random() * 0.99 + 0.01)
            live[site_id].append(t)
            maintainer.insert(site_id, t)
        fresh = distributed_skyline(live, 0.3)
        assert maintainer.skyline().agrees_with(fresh.answer, tol=1e-6)

        # 4. The streaming layer reproduces the same semantics from zero.
        hub = ContinuousCoordinator(
            [StreamSite(i, CountWindow(1_000)) for i in range(3)]
        )
        query_id = hub.register(StandingQuery(threshold=0.3))
        for site_id, part in enumerate(live):
            for t in part:
                hub.ingest(site_id, t)
                hub.close_epoch()
        assert hub.result(query_id).agrees_with(maintainer.skyline(), tol=1e-6)


class TestPreferenceEverywhere:
    def test_mixed_preference_through_every_layer(self, tmp_path):
        pref = Preference.of("min,max")
        workload = make_nyse_workload(n=800, sites=3, seed=6)
        central = prob_skyline_sfs(workload.global_database, 0.3, pref)

        # distributed horizontal
        horizontal = distributed_skyline(
            workload.partitions, 0.3, preference=pref
        )
        assert horizontal.answer.agrees_with(central, tol=1e-9)
        # persisted round trip keeps the same answer
        path = tmp_path / "trades.jsonl"
        save_tuples(path, workload.global_database)
        again = prob_skyline_sfs(load_tuples(path), 0.3, pref)
        assert again.agrees_with(central, tol=1e-12)


class TestLatencyModelConsistency:
    def test_simulated_time_scales_with_latency_not_answer(self):
        workload = make_synthetic_workload(n=600, d=2, sites=4, seed=7)
        slow = distributed_skyline(
            workload.partitions, 0.3,
            latency_model=LatencyModel(round_latency=0.5),
        )
        fast = distributed_skyline(
            workload.partitions, 0.3,
            latency_model=LatencyModel(round_latency=0.001),
        )
        assert slow.answer.agrees_with(fast.answer, tol=1e-12)
        assert slow.stats.rounds == fast.stats.rounds
        assert slow.stats.simulated_time > 100 * fast.stats.simulated_time


class TestAlgorithmFamilyOnOneInstance:
    def test_four_ways_to_the_same_answer(self):
        """All four horizontal algorithms agree on a single nontrivial
        instance with ties and P=1 tuples."""
        rng = random.Random(8)
        db = [
            UncertainTuple(
                i,
                (float(rng.randrange(12)), float(rng.randrange(12))),
                1.0 if i % 7 == 0 else rng.random() * 0.99 + 0.01,
            )
            for i in range(400)
        ]
        central = prob_skyline_sfs(db, 0.3)
        partitions = [db[i::5] for i in range(5)]
        for algorithm in ("ship-all", "naive", "dsud", "edsud"):
            result = distributed_skyline(partitions, 0.3, algorithm=algorithm)
            assert result.answer.agrees_with(central, tol=1e-9), algorithm
