"""``stream_sliding`` — standing queries over sliding-window streams.

One ``SkylineService`` with a stream plane (four count windows) and
three standing queries (plain, subspace, top-k).  An op is one epoch:
ingest a slice of a seeded ``make_synthetic_stream`` schedule, publish,
drain every subscriber.  The same kernels and site code the one-shot
workloads read through are used here for inserts, expiries and
incremental maintenance (the unindexed columnar path), so a gain for
queries that taxes insert/expire shows here.

Every round builds a fresh service and replays the *same* schedule
(bulk fill and warm epochs untimed), so per-op minima compare like with
like.  Each epoch replaces a quarter of every window: the windows turn
over completely every four epochs, which keeps one run's metrics from
hanging on a handful of long-lived tuples.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from harness import OpSample, Workload, answer_digest, subseed
from spans import SpanLog

from repro.core.dominance import Preference
from repro.data.workload import make_synthetic_stream
from repro.distributed.query import distributed_skyline
from repro.serve import AdmissionPolicy, SkylineService
from repro.stream import StandingQuery, make_window
from repro.stream.site import streaming_site_config

QUERIES = (
    StandingQuery(threshold=0.4),
    StandingQuery(threshold=0.3, preference=Preference(subspace=(0, 1))),
    StandingQuery(threshold=0.25, limit=8),
)
WARM_EPOCHS = 3
CHECK_EVERY = 10  # epochs between fresh-run comparisons


class StreamSliding(Workload):
    name = "stream_sliding"
    full_scale = {"sites": 4, "d": 3, "window": 200, "per_epoch": 200, "epochs": 100}
    quick_scale = {"sites": 3, "d": 3, "window": 40, "per_epoch": 30, "epochs": 10}
    setups = 8  # a set-up is 0.2 s here; more of them make its minimum steadier
    rounds = 6  # a round is 1.6 s
    #: The references are one full replay on a fresh service, and every
    #: round builds a fresh service: there is nothing left to warm.
    warm_round = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.arrivals: list = []
        self.service: Optional[SkylineService] = None
        self.sessions: list = []
        self.cursor = 0

    def _generate(self) -> list:
        scale = self.scale
        fill = scale["sites"] * scale["window"]
        total = fill + (WARM_EPOCHS + scale["epochs"]) * scale["per_epoch"]
        return make_synthetic_stream(
            n=total, d=scale["d"], sites=scale["sites"], seed=subseed(self.seed, 0)
        )

    async def setup(self) -> None:
        self.arrivals = self._generate()
        await self._fresh_service()

    async def teardown(self) -> None:
        if self.service is not None:
            await self.service.close()
            self.service = None

    async def _fresh_service(self) -> None:
        """Standing state: service, subscriptions, full windows, warm epochs."""
        await self.teardown()
        scale = self.scale
        self.service = SkylineService(
            stream_windows=[make_window("count", scale["window"]) for _ in range(scale["sites"])],
            auto_publish=False,
            policy=AdmissionPolicy(max_subscriptions=8),
        )
        self.service.start()
        self.sessions = [await self.service.subscribe(query) for query in QUERIES]
        self.cursor = 0
        self._ingest(scale["sites"] * scale["window"], None)
        await self._drain(await self.service.publish())
        for _ in range(WARM_EPOCHS):
            await self._epoch(0, None)

    def _ingest(self, count: int, record) -> None:
        service = self.service
        for arrival in self.arrivals[self.cursor : self.cursor + count]:
            if record is None:
                service.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
            else:
                start = time.perf_counter()
                service.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
                record("stream.ingest", start, time.perf_counter())
        self.cursor += count

    async def _drain(self, deltas: list) -> Optional[float]:
        """Take the epoch's batch off every subscriber it was pushed to
        (``publish`` delivers one batch to each query with deltas);
        returns when the first one landed."""
        first = None
        pushed = {delta.query_id for delta in deltas}
        for session in self.sessions:
            if session.query_id in pushed:
                await session.next_batch()
                if first is None:
                    first = time.perf_counter()
        return first

    async def _epoch(self, op: int, spans: Optional[SpanLog]) -> OpSample:
        stream = self.service.stream
        record = spans.recorder(op) if spans is not None else None
        tuples, messages = stream.stats.tuples_transmitted, stream.stats.messages
        candidates, replicas = stream.candidates_shipped, stream.replicas_shipped
        rounds = stream.stats.rounds
        start = time.perf_counter()
        self._ingest(self.scale["per_epoch"], record)
        ingested = time.perf_counter()
        deltas = await self.service.publish()
        published = time.perf_counter()
        first = await self._drain(deltas)
        end = time.perf_counter()
        if record is not None:
            record("stream.publish", ingested, published)
            record("stream.deliver", published, end)
        return OpSample(
            latency=end - start,
            first=(first or end) - start,
            tuples=stream.stats.tuples_transmitted - tuples,
            messages=stream.stats.messages - messages,
            digest=self._digest(),
            counts={
                "coordinator.rounds_per_op": stream.stats.rounds - rounds,
                "stream.candidates_per_epoch": stream.candidates_shipped - candidates,
                "stream.replicas_per_epoch": stream.replicas_shipped - replicas,
                "stream.deltas_per_epoch": len(deltas),
            },
        )

    def _digest(self) -> str:
        stream = self.service.stream
        return answer_digest(
            (m.key, m.probability)
            for session in self.sessions
            for m in stream.result(session.query_id).members
        )

    async def run_round(self, spans: Optional[SpanLog] = None) -> Tuple[List[OpSample], float]:
        await self._fresh_service()
        start = time.perf_counter()
        samples = [await self._epoch(op, spans) for op in range(self.scale["epochs"])]
        return samples, time.perf_counter() - start

    async def build_references(self) -> int:
        """One untimed replay: every tenth epoch against a fresh one-shot run.

        The pushed result of every standing query must be bit-identical
        (keys, probabilities, order) to ``distributed_skyline`` over the
        live windows; the per-epoch digests of this replay are what the
        measured rounds are compared with.
        """
        await self._fresh_service()
        failures = 0
        self.expected = []
        stream = self.service.stream
        for op in range(self.scale["epochs"]):
            sample = await self._epoch(op, None)
            agrees = True
            if (op + 1) % CHECK_EVERY == 0:
                for session in self.sessions:
                    query = session.query
                    fresh = distributed_skyline(
                        stream.live_partitions(),
                        query.threshold,
                        algorithm="edsud",
                        preference=query.preference,
                        limit=query.limit,
                        site_config=streaming_site_config(),
                    ).answer
                    pushed = stream.result(session.query_id)
                    agrees &= [(m.key, m.probability) for m in pushed.members] == [
                        (m.key, m.probability) for m in fresh.members
                    ]
            failures += 0 if agrees else 1
            self.expected.append(sample.digest if agrees else "oracle-mismatch")
        return failures

    has_site_spans = False

    async def layer_metrics(self) -> Dict[str, float]:
        from layers import best_seconds, core_layer_metrics

        stream = self.service.stream
        metrics = core_layer_metrics(stream.live_partitions()[0], QUERIES[0].threshold)
        metrics["data.generate_s"] = best_seconds(self._generate)
        metrics["stream.suppression_ratio"] = 1.0 - stream.candidates_shipped / stream.arrivals_total
        return metrics
