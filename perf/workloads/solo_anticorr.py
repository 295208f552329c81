"""``solo_anticorr`` — one caller, one-shot queries, sites rebuilt per op.

The paper's Fig. 8–10 setting: anticorrelated data, thresholds 0.3–0.7,
DSUD and e-DSUD, per-candidate and batched feedback.  Each op is
``build_coordinator`` → ``steps()`` → ``finish()`` in-process, so the
PR-tree build, the BBS local skylines, the site queues and the
coordinator loop do all the work; ``net`` and ``serve`` do none.

Every op queries its *own* seed-derived database.  Answer sizes of one
database swing ±10 % from seed to seed; twenty independent ones average
that out, so a run's metrics describe the generator's distribution and
not one draw from it.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    OpSample,
    Workload,
    anticorrelated_database,
    answer_digest,
    brute_force_skyline,
    subseed,
)
from spans import SpanLog, TimedEndpoint

from repro.distributed.query import ALGORITHMS, build_coordinator, build_sites

THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7)
ALGOS = ("dsud", "edsud")
BATCH_SIZES = (1, 4)


class SoloAnticorr(Workload):
    name = "solo_anticorr"
    full_scale = {"n": 1000, "d": 3, "sites": 6}
    quick_scale = {"n": 200, "d": 3, "sites": 4}
    #: The references run every op once through ``build_coordinator``,
    #: and every op rebuilds its sites: there is nothing left to warm.
    warm_round = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.ops = list(itertools.product(ALGOS, BATCH_SIZES, THRESHOLDS))
        self.databases: list = []

    def _generate(self, op: int):
        return anticorrelated_database(self.scale, subseed(self.seed, op))

    async def setup(self) -> None:
        self.databases = [self._generate(op) for op in range(len(self.ops))]
        # No standing state to build: the warm pass is one throw-away
        # query per (algorithm, batch size) code path.
        for op in range(0, len(self.ops), len(THRESHOLDS)):
            self._run_op(op, None)

    def _run_op(self, op: int, spans: Optional[SpanLog]) -> OpSample:
        algorithm, batch_size, threshold = self.ops[op]
        partitions = self.databases[op].partitions
        start = time.perf_counter()
        if spans is None:
            coordinator = build_coordinator(
                partitions, threshold, algorithm=algorithm, batch_size=batch_size
            )
        else:
            # The same assembly build_coordinator performs, with the
            # benchmark's wrappers between coordinator and sites.
            record = spans.recorder(op)
            sites = build_sites(partitions)
            record("site.build", start, time.perf_counter())
            coordinator = ALGORITHMS[algorithm](
                [TimedEndpoint(site, record) for site in sites],
                threshold,
                batch_size=batch_size,
            )
        first = None
        for _ in coordinator.steps():
            if first is None and coordinator.results:
                first = time.perf_counter()
        result = coordinator.finish()
        end = time.perf_counter()
        return OpSample(
            latency=end - start,
            first=(first or end) - start,
            tuples=result.stats.tuples_transmitted,
            messages=result.stats.messages,
            digest=answer_digest((m.key, m.probability) for m in result.answer),
            counts={
                "coordinator.iterations_per_op": result.iterations,
                "coordinator.rounds_per_op": result.stats.rounds,
                "site.pruned_per_op": result.extra.get("site_pruned_total", 0.0),
            },
        )

    async def run_round(self, spans: Optional[SpanLog] = None) -> Tuple[List[OpSample], float]:
        start = time.perf_counter()
        samples = [self._run_op(op, spans) for op in range(len(self.ops))]
        return samples, time.perf_counter() - start

    async def build_references(self) -> int:
        """Centralized brute force over each op's global database.

        Keys exact, probabilities to 1e-9 (the distributed product
        multiplies site factors in another order).  The digest of the
        answer that passed becomes the op's per-round reference.
        """
        failures = 0
        self.expected = []
        for op, (_algorithm, _batch, threshold) in enumerate(self.ops):
            database = self.databases[op].global_database
            truth = brute_force_skyline(
                np.array([t.values for t in database]),
                np.array([t.probability for t in database]),
                np.array([t.key for t in database]),
            )
            want = {k: p for k, p in truth.items() if p >= threshold - 1e-9}
            coordinator = build_coordinator(
                self.databases[op].partitions,
                threshold,
                algorithm=self.ops[op][0],
                batch_size=self.ops[op][1],
            )
            answer = coordinator.run().answer
            got = answer.probabilities()
            firm = {k for k, p in want.items() if p >= threshold + 1e-9}
            agrees = (
                firm <= set(got) <= set(want)
                and all(abs(got[k] - want[k]) <= 1e-9 for k in got)
            )
            failures += 0 if agrees else 1
            self.expected.append(
                answer_digest((m.key, m.probability) for m in answer) if agrees else "oracle-mismatch"
            )
        return failures

    async def layer_metrics(self) -> Dict[str, float]:
        from layers import best_seconds, index_layer_metrics

        metrics = index_layer_metrics(
            self.databases[0].partitions, THRESHOLDS[len(THRESHOLDS) // 2]
        )
        metrics["data.generate_s"] = best_seconds(lambda: self._generate(0)) * len(self.ops)
        return metrics
