"""``serve_mix`` — concurrent clients over standing ``SkylineService``s.

Four client coroutines share one event-loop thread and replay a mixed
op list (thresholds, algorithms, top-k, subspaces, batching — the
dimensions ``sample_query_mix`` draws from) with a crash-and-return
chaos slice and an ``rf=2`` failover slice.  Local skylines are
memoised by the services' ``SharedSiteHost`` templates after the
warm-up round, so ``index``/``core`` do little; admission, scheduler
passes over several running sessions, ``fork()`` views, session and
coordinator construction, fault handling and replica failover dominate.

The op list is cut into waves of four ops of one class, one wave per
service (each over its own seed-derived database).  The four clients
send a wave together — the service's scheduler steps four sessions a
pass, its hosts fork concurrently — and move on to the next service
when the wave is done.  One database's answer sizes swing ±20 % from
seed to seed and a query of a database already queried adds cost but no
new draw, so the steadiest list for its cost gives every wave a
database of its own.  The services stand for the whole run and nothing
is ever evicted from them, so what a service retains per finished
session shows in ``peak_rss_mb``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import OpSample, Workload, anticorrelated_database, subseed
from spans import SpanLog, TimedHost
from workloads.sessions import session_digest, session_sample, waves

from repro.core.dominance import Preference
from repro.distributed.query import distributed_skyline
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.serve import AdmissionPolicy, QuerySession, QuerySpec, SkylineService
from repro.serve.sites import StandingReplicaBook

CLIENTS = 4
THRESHOLDS = (0.3, 0.4, 0.5, 0.6)
ALGORITHMS = ("dsud", "edsud")
LIMITS = (3, 5, 10)
SUBSPACES = ((0, 1), (0, 2), (1, 2))
PER_SERVICE = CLIENTS  # one wave
#: Every 20 consecutive ops, in issue order, as (class, fault) — five
#: waves of one class each:
#:
#: * light — top-k and subspace lookups, any threshold, half of them
#:   with batched feedback; they resolve in a tenth of a full query's
#:   iterations;
#: * typical (three waves) — the full skyline at threshold 0.6;
#: * heavy — the full skyline at threshold 0.3, twice the iterations.
#:
#: 10 % of the ops meet a crash-and-return fault (retried) and 10 % run
#: ``rf=2`` with a primary that stays down.  A session's latency is its
#: steps times the scheduler's pass over *all* running sessions, so in a
#: free-running closed loop over a mixed list the same query took 30 to
#: 160 ms depending on its siblings, and ``latency_p50_ms``, one rank of
#: that broad class, spread 22 % over ten seeds.  In a wave the siblings
#: are of the op's own class from start to end; the classes are narrow,
#: the p50 rank falls in the middle of the typical one and the p90 rank
#: in the middle of the heavy one.  The full queries give feedback one
#: candidate a round (a batched step costs four times as much).
BLOCK = (
    ("typical", None), ("typical", None), ("typical", "chaos"), ("typical", None),
    ("limit", None), ("subspace", None), ("limit", None), ("subspace", None),
    ("typical", None), ("typical", None), ("typical", None), ("typical", "failover"),
    ("heavy", None), ("heavy", "failover"), ("heavy", None), ("heavy", "chaos"),
    ("typical", None), ("typical", None), ("typical", None), ("typical", None),
)  # fmt: skip


def balanced_specs(ops: int, sites: int, seed: int) -> List[QuerySpec]:
    """The op list: the same queries in the same order for every seed.

    Light ops cycle through the thresholds, the algorithms and both
    batch sizes; typical and heavy ops alternate the algorithm.  The
    seed decides which site a fault hits, the fault's own draws, and
    the data.
    """
    rng = random.Random(seed)
    # Retries back off by a bare yield: no timer decides which session runs
    # next, so a round interleaves its sessions the same way every time.
    retry = RetryPolicy(max_attempts=2, base_backoff=0.0, max_backoff=0.0)
    specs: List[QuerySpec] = []
    seen: Dict[str, int] = {}
    for op in range(ops):
        kind, fault = BLOCK[op % len(BLOCK)]
        i = seen[kind] = seen.get(kind, -1) + 1  # the i-th op of its kind
        victim, chaos_seed = rng.randrange(sites), rng.randrange(1 << 20)
        schedule = None
        if fault == "chaos":
            schedule = FaultSchedule(seed=chaos_seed).crash(victim, at_call=8, until_call=24)
        elif fault == "failover":
            schedule = FaultSchedule(seed=chaos_seed).crash(victim, at_call=8)
        if kind == "typical":
            threshold, algorithm, batch_size = 0.6, ALGORITHMS[i % 2], 1
        elif kind == "heavy":
            threshold, algorithm, batch_size = 0.3, ALGORITHMS[i % 2], 1
        else:
            threshold, batch_size, algorithm = (
                THRESHOLDS[i % 4],
                (1, 4)[i // 4 % 2],
                ALGORITHMS[i // 8 % 2],
            )
        specs.append(
            QuerySpec(
                threshold=threshold,
                algorithm=algorithm,
                preference=Preference(subspace=SUBSPACES[i % 3]) if kind == "subspace" else None,
                limit=LIMITS[i % 3] if kind == "limit" else None,
                batch_size=batch_size,
                replication_factor=2 if fault == "failover" else 1,
                fault_schedule=schedule,
                retry_policy=retry if schedule is not None else None,
            )
        )
    return specs


class ServeMix(Workload):
    name = "serve_mix"
    full_scale = {"ops": 80, "n": 400, "d": 3, "sites": 6}
    quick_scale = {"ops": 20, "n": 150, "d": 3, "sites": 4}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.partitions: list = []
        self.specs: List[QuerySpec] = []
        self.services: List[SkylineService] = []
        #: Twins of the services over ``TimedHost``s, built for the
        #: first traced round; untraced rounds never touch a wrapper.
        self.traced_services: List[SkylineService] = []

    def _service(self, op: int) -> int:
        return op // PER_SERVICE

    def _generate(self, service: int):
        return anticorrelated_database(self.scale, subseed(self.seed, 10 + service))

    async def _build_services(self, traced: bool) -> List[SkylineService]:
        """Standing services, one per database, each warmed by one query."""
        policy = AdmissionPolicy(max_inflight=8, max_queued=len(self.specs))
        services = []
        for partitions in self.partitions:
            service = SkylineService(partitions, policy=policy)
            if traced:
                service.hosts = [TimedHost(host) for host in service.hosts]
                service.replica_book = StandingReplicaBook(service.hosts)
            service.start()
            services.append(service)
            # The warm pass: one short query builds the default templates
            # (index, one skyline memo); the warm-up round does the rest.
            session = await service.submit(QuerySpec(THRESHOLDS[0], "edsud", limit=1))
            while not session.done:
                await asyncio.sleep(0)
        return services

    async def setup(self) -> None:
        scale = self.scale
        self.specs = balanced_specs(scale["ops"], scale["sites"], subseed(self.seed, 1))
        self.partitions = [
            self._generate(k).partitions for k in range(scale["ops"] // PER_SERVICE)
        ]
        self.services = await self._build_services(traced=False)

    async def teardown(self) -> None:
        for service in self.services + self.traced_services:
            await service.close()
        self.services, self.traced_services = [], []

    async def run_round(self, spans: Optional[SpanLog] = None) -> Tuple[List[OpSample], float]:
        if spans is not None and not self.traced_services:
            self.traced_services = await self._build_services(traced=True)
        services = self.services if spans is None else self.traced_services
        passes_before = sum(s.passes for s in services)

        async def submit(op: int) -> QuerySession:
            service = services[self._service(op)]
            if spans is None:
                return await service.submit(self.specs[op])
            record = spans.bind(op)  # also reaches the TimedHosts under submit()
            start = time.perf_counter()
            session = await service.submit(self.specs[op])
            record("serve.submit", start, time.perf_counter())
            return session

        finished, makespan = await waves(range(len(self.specs)), CLIENTS, submit)
        passes = (sum(s.passes for s in services) - passes_before) / len(self.specs)
        samples = []
        for op in range(len(self.specs)):
            session, start = finished[op]
            sample = session_sample(session, start)
            sample.counts["serve.passes_per_op"] = passes
            if session.result is not None:
                sample.counts["site.pruned_per_op"] = session.result.extra.get(
                    "site_pruned_total", 0.0
                )
            samples.append(sample)
        return samples, makespan

    async def build_references(self) -> int:
        """Each op solo: ``distributed_skyline`` of the same spec."""
        self.expected = []
        for op, spec in enumerate(self.specs):
            solo = distributed_skyline(
                self.partitions[self._service(op)],
                spec.threshold,
                algorithm=spec.algorithm,
                preference=spec.preference,
                limit=spec.limit,
                fault_schedule=spec.fault_schedule,
                retry_policy=spec.retry_policy,
                batch_size=spec.batch_size,
                replication_factor=spec.replication_factor,
            )
            self.expected.append(session_digest(solo.answer, solo.stats))
        return 0

    def op_wall_ms(self, traced) -> float:
        # Sessions interleave on one thread: the loop's time per op is
        # the round makespan over the op count, not a session's latency.
        return min(traced.makespans) / len(self.specs) * 1e3

    async def layer_metrics(self) -> Dict[str, float]:
        from layers import best_seconds, index_layer_metrics

        metrics = index_layer_metrics(self.partitions[0], 0.4)
        metrics["data.generate_s"] = (
            best_seconds(lambda: self._generate(0)) * len(self.partitions)
        )
        return metrics
