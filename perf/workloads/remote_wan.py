"""``remote_wan`` — clients over site servers in other OS processes.

Eight closed-loop client coroutines on one event-loop thread drive
``SkylineService(remote_sites=…, overlap_steps=True)`` against
``host_sites_in_processes`` clusters whose servers sleep 1.5 ms per RPC
(the WAN stand-in; everything is loopback).  Per-session dials,
fork-per-connection servers, JSON tuple lists and socket waits dominate;
the kernels are cached site-side after the warm-up round.  The op list keeps
to what the wire can express: threshold, algorithm, top-k, batching.

As in ``serve_mix`` consecutive ops share a cluster (one seed-derived
database and one service each), so a service's scheduler has several
sessions to overlap in a pass, and there are several clusters, so that
one database's answer size does not decide the run.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import OpSample, Workload, anticorrelated_database, subseed
from spans import SpanLog, TimedEndpoint
from workloads.serve_mix import ALGORITHMS, THRESHOLDS
from workloads.sessions import closed_loop, session_digest, session_sample

from repro.distributed.query import ALGORITHMS as COORDINATORS
from repro.distributed.query import distributed_skyline
from repro.net.aio import connect_async_sites
from repro.net.sockets import host_sites_in_processes
from repro.serve import AdmissionPolicy, QuerySession, QuerySpec, SkylineService

CLIENTS = 8
RPC_DELAY = 0.0015  # seconds every site server sleeps per RPC
LIMIT = 5  # top-k on one op in eight
PER_CLUSTER = 3  # consecutive ops that share a cluster


class RemoteWan(Workload):
    name = "remote_wan"
    full_scale = {"ops": 24, "n": 300, "d": 3, "sites": 4}
    quick_scale = {"ops": 6, "n": 120, "d": 3, "sites": 3}
    setups = 3  # a set-up starts 32 site-server processes and takes 0.9 s

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.partitions: list = []
        self.specs: List[QuerySpec] = []
        self.order: List[int] = []
        self.issued: Dict[int, int] = {}  # op → its position in the order
        self.clusters: list = []
        self.services: List[SkylineService] = []

    def _cluster(self, op: int) -> int:
        return self.issued[op] // PER_CLUSTER

    def _generate(self, cluster: int):
        return anticorrelated_database(self.scale, subseed(self.seed, 10 + cluster))

    async def setup(self) -> None:
        scale = self.scale
        self.partitions = [
            self._generate(c).partitions for c in range(scale["ops"] // PER_CLUSTER)
        ]
        # Threshold × algorithm × batch size, each combination equally
        # often, and one top-k query in eight: the same composition for
        # every seed.  The seed pairs the ops with the clusters.
        self.specs = [
            QuerySpec(
                threshold=THRESHOLDS[op % 4],
                algorithm=ALGORITHMS[op // 4 % 2],
                limit=LIMIT if op % 8 == op // 8 else None,
                batch_size=(1, 4)[op // 8 % 2],
            )
            for op in range(scale["ops"])
        ]
        random.Random(subseed(self.seed, 1)).shuffle(self.specs)
        # Issued costliest first (plain before top-k, low thresholds
        # first): with three ops per client the makespan would otherwise
        # hang on which long op happened to start last.
        self.order = sorted(
            range(scale["ops"]),
            key=lambda op: (self.specs[op].limit is not None, self.specs[op].threshold),
        )
        self.issued = {op: position for position, op in enumerate(self.order)}
        policy = AdmissionPolicy(max_inflight=8, max_queued=scale["ops"])
        for partitions in self.partitions:
            cluster = host_sites_in_processes(partitions, rpc_delay=RPC_DELAY)
            self.clusters.append(cluster)
            service = SkylineService(
                remote_sites=cluster.addresses, policy=policy, overlap_steps=True
            )
            service.start()
            self.services.append(service)
            # The warm pass: one short query has every site server fork,
            # answer and cache once; the warm-up round does the rest.
            session = await service.submit(QuerySpec(THRESHOLDS[0], "edsud", limit=1))
            while not session.done:
                await asyncio.sleep(0)

    async def teardown(self) -> None:
        for service in self.services:
            await service.close()
        for cluster in self.clusters:
            cluster.close()  # terminates and joins every site-server process
        self.services, self.clusters = [], []

    async def run_round(self, spans: Optional[SpanLog] = None) -> Tuple[List[OpSample], float]:
        async def submit(op: int) -> QuerySession:
            start = time.perf_counter()
            session = await self.services[self._cluster(op)].submit(self.specs[op])
            if spans is not None:
                spans.recorder(op)("serve.submit", start, time.perf_counter())
            return session

        finished, makespan = await closed_loop(self.order, CLIENTS, submit)
        samples = []
        for op in range(len(self.specs)):
            session, start = finished[op]
            sample = session_sample(session, start)
            rpcs = session.coordinator.stats.rpc_calls
            sample.counts["net.rpcs_per_op"] = rpcs
            sample.counts["net.wan_floor_ms"] = rpcs * RPC_DELAY * 1e3
            # submitted_at is stamped after the session's dials.
            sample.timings["net.dial_ms"] = session.submitted_at - start
            samples.append(sample)
        return samples, makespan

    async def build_references(self) -> int:
        """Each op solo and in-process: same answer, same books."""
        self.expected = []
        for op, spec in enumerate(self.specs):
            solo = distributed_skyline(
                self.partitions[self._cluster(op)],
                spec.threshold,
                algorithm=spec.algorithm,
                limit=spec.limit,
                batch_size=spec.batch_size,
            )
            self.expected.append(session_digest(solo.answer, solo.stats))
        return 0

    has_site_spans = False

    async def _direct_pass(self) -> List[Tuple[float, float]]:
        """One op per cluster over privately dialed, timed proxies — no service.

        One session at a time, so an op's wall minus its RPC waits is
        the coordinator's own time.  Returns ``(wall, waited)`` per op.
        The ops are issued costliest first, so every third one is a
        sample across the whole range of costs.
        """
        out: List[Tuple[float, float]] = []
        for op in self.order[::PER_CLUSTER]:
            spec = self.specs[op]
            waits: List[float] = []
            proxies = await connect_async_sites(self.clusters[self._cluster(op)].addresses)
            try:
                coordinator = COORDINATORS[spec.algorithm](
                    [
                        TimedEndpoint(p, lambda _n, t0, t1: waits.append(t1 - t0), awaitable=True)
                        for p in proxies
                    ],
                    spec.threshold,
                    limit=spec.limit,
                    batch_size=spec.batch_size,
                )
                start = time.perf_counter()
                async for _ in coordinator.asteps():
                    pass
                await coordinator.afinish()
                out.append((time.perf_counter() - start, sum(waits)))
            finally:
                for proxy in proxies:
                    await proxy.close()
        return out

    async def layer_metrics(self) -> Dict[str, float]:
        from layers import best_seconds, index_layer_metrics

        metrics = index_layer_metrics(self.partitions[0], 0.4)
        metrics["data.generate_s"] = (
            best_seconds(lambda: self._generate(0)) * len(self.partitions)
        )
        direct = await self._direct_pass()
        metrics["net.rpc_wait_ms"] = sum(w for _, w in direct) / len(direct) * 1e3
        metrics["coordinator.self_ms"] = sum(wall - w for wall, w in direct) / len(direct) * 1e3
        # Round trips on one standing connection.
        (proxy,) = await connect_async_sites(self.clusters[0].addresses[:1])
        try:
            batch = self.partitions[0][1][:8]
            await proxy.prepare(0.4)
            pings, batches = [], []
            for _ in range(200):
                start = time.perf_counter()
                await proxy.ping()
                pings.append(time.perf_counter() - start)
            for _ in range(50):
                start = time.perf_counter()
                await proxy.probe_and_prune_batch(batch)
                batches.append(time.perf_counter() - start)
        finally:
            await proxy.close()
        metrics["net.ping_rtt_us"] = min(pings) * 1e6
        metrics["net.batch_rtt_us"] = min(batches) * 1e6
        metrics["net.site_rss_mb"] = max(
            _peak_rss_mb(process.pid) for cluster in self.clusters for process in cluster.processes
        )
        return metrics


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live site-server process (it is reaped only at teardown)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
