"""The one-call front door."""

import asyncio

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.distributed.edsud import EDSUDConfig
from repro.distributed.query import (
    ALGORITHMS,
    build_coordinator,
    build_sites,
    distributed_skyline,
)
from repro.net.stats import LatencyModel
from repro.serve import QuerySpec, SkylineService

from ..conftest import make_random_database


class TestBuildSites:
    def test_ids_are_indices(self):
        db = make_random_database(30, 2, seed=1)
        sites = build_sites([db[:10], db[10:20], db[20:]])
        assert [s.site_id for s in sites] == [0, 1, 2]

    def test_preference_propagated(self):
        from repro.core.dominance import Preference

        db = make_random_database(10, 2, seed=2)
        pref = Preference.of("min,max")
        sites = build_sites([db], preference=pref)
        assert sites[0].preference is pref


class TestDistributedSkyline:
    def test_registry_contains_all_four(self):
        assert set(ALGORITHMS) == {"ship-all", "naive", "dsud", "edsud"}

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            distributed_skyline([[]], 0.3, algorithm="quantum")

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_runs_and_agrees(self, algorithm):
        db = make_random_database(200, 2, seed=3, grid=10)
        partitions = [db[i::4] for i in range(4)]
        central = prob_skyline_sfs(db, 0.3)
        result = distributed_skyline(partitions, 0.3, algorithm=algorithm)
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_edsud_config_forwarded(self):
        db = make_random_database(100, 2, seed=4, grid=10)
        partitions = [db[i::2] for i in range(2)]
        result = distributed_skyline(
            partitions, 0.3, algorithm="edsud",
            edsud_config=EDSUDConfig(server_expunge=False),
        )
        central = prob_skyline_sfs(db, 0.3)
        assert result.answer.agrees_with(central, tol=1e-9)

    @pytest.mark.parametrize("front_door", ["solo", "served"])
    def test_edsud_config_without_edsud_is_rejected(self, front_door):
        """Both front doors assemble through one function: a config the
        chosen algorithm cannot honour is an error, never dropped."""
        db = make_random_database(40, 2, seed=4, grid=10)
        partitions = [db[i::2] for i in range(2)]

        async def served():
            async with SkylineService(partitions) as service:
                await service.submit(
                    QuerySpec(0.3, algorithm="dsud", edsud_config=EDSUDConfig())
                )

        with pytest.raises(ValueError, match="edsud_config= requires"):
            if front_door == "solo":
                build_coordinator(
                    partitions, 0.3, algorithm="dsud", edsud_config=EDSUDConfig()
                )
            else:
                asyncio.run(served())

    def test_latency_model_forwarded(self):
        db = make_random_database(100, 2, seed=5, grid=10)
        partitions = [db[i::2] for i in range(2)]
        slow = distributed_skyline(
            partitions, 0.3, latency_model=LatencyModel(round_latency=1.0)
        )
        fast = distributed_skyline(
            partitions, 0.3, latency_model=LatencyModel(round_latency=0.001)
        )
        assert slow.stats.simulated_time > fast.stats.simulated_time
        assert slow.bandwidth == fast.bandwidth
