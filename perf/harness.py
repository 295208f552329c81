"""The measurement protocol every workload shares: per-op best-of-rounds.

A workload is a fixed, seed-generated op list.  The harness sets the
workload up several times (``setup_s`` is the fastest fresh set-up),
replays the op list once to warm up (where state is memoised between
rounds) and then for R measured rounds, and reduces the samples the same
way everywhere:

* each op's time is its *minimum* over the rounds — host jitter on a
  shared sandbox only ever adds time, so the minimum is the repeatable
  part of the sample;
* percentiles are then nearest-rank over the op list of those minima;
* throughput is ops per round over the fastest round's makespan;
* counts (tuples, messages) must repeat exactly in every round and are
  reported as per-op means.

Every answer is checked against the workload's reference answers,
outside every timer; a wrong answer, a failed session, an exception or
a count that moved between rounds is a failed op.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from spans import SpanLog

from repro.data.workload import make_synthetic_workload

__all__ = [
    "MIN_ROUNDS",
    "OpSample",
    "Workload",
    "answer_digest",
    "anticorrelated_database",
    "brute_force_skyline",
    "calibrate_ms",
    "percentile",
    "run_workload",
    "subseed",
]

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Rounds a run always makes, however slow the host.
MIN_ROUNDS = 3


@dataclass
class OpSample:
    """One execution of one op, on the generator's own clock."""

    latency: float  # seconds: just before the entry-point call → done
    first: float  # seconds: same start → first non-empty result
    tuples: int  # NetworkStats.tuples_transmitted billed to this op
    messages: int  # NetworkStats.messages billed to this op
    digest: str  # answer_digest of what the op returned
    #: Exact per-op counts read off the program's own books (iterations,
    #: rounds, retries, …); they feed the per-layer table.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Layer times (seconds) the program stamped or the generator took
    #: inside this op; reduced per-op best-of-rounds, reported in ms.
    timings: Dict[str, float] = field(default_factory=dict)
    #: False when the op raised or its session FAILED/ABORTED.
    ok: bool = True


class Workload:
    """What the harness needs from one workload (see ``workloads/``)."""

    name = "abstract"
    #: Input sizes: the measured scale, and the smoke-test one.
    full_scale: Dict[str, int] = {}
    quick_scale: Dict[str, int] = {}
    #: Fresh set-ups timed per run; ``setup_s`` is their minimum.
    setups = 5
    #: Measured rounds at the declared ``run_seconds``.
    rounds = 4
    #: Whether an unmeasured replay precedes the measured rounds.  False
    #: where ``build_references`` already replays every op on the same
    #: code path and nothing is memoised between rounds.
    warm_round = True
    #: Whether traced rounds put ``TimedEndpoint``s between coordinator
    #: and sites (then ``coordinator.self_ms`` is the op's residual).
    has_site_spans = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.scale = self.quick_scale if quick else self.full_scale
        #: Per-op reference digests, filled by :meth:`build_references`.
        self.expected: List[str] = []

    async def setup(self) -> None:
        """Generate inputs, build standing state, run one warm pass."""
        raise NotImplementedError

    async def teardown(self) -> None:
        """Release standing state (services, site-server processes)."""

    async def build_references(self) -> int:
        """Fill :attr:`expected`; returns how many ops failed the oracle."""
        raise NotImplementedError

    async def run_round(self, spans: Optional[SpanLog] = None) -> Tuple[List[OpSample], float]:
        """Replay the op list once: the samples and the round's makespan.

        ``spans`` switches the benchmark's timing wrappers on.
        """
        raise NotImplementedError

    async def layer_metrics(self) -> Dict[str, float]:
        """Direct micro-calls into the layers this workload keeps busy."""
        return {}

    def op_wall_ms(self, traced: "_Rounds") -> float:
        """Caller-thread time per op that the site spans are a share of.

        One caller: the mean traced op latency.  Workloads that
        interleave sessions on one thread override this with the round
        makespan per op, since a session's latency there also holds its
        siblings' work.
        """
        return sum(traced.best("latency")) / len(traced.samples[0]) * 1e3


def subseed(seed: int, stream: int) -> int:
    """A distinct generator seed per (run seed, input stream)."""
    return seed * 1009 + stream


def anticorrelated_database(scale: Dict[str, int], seed: int) -> Any:
    """One partitioned database of the paper's hardest distribution."""
    return make_synthetic_workload(
        "anticorrelated", n=scale["n"], d=scale["d"], sites=scale["sites"], seed=seed
    )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty series."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def answer_digest(members: Iterable[Tuple[int, float]]) -> str:
    """Keys, probability bits and order of one answer, as a short hash."""
    h = hashlib.sha1()
    for key, probability in members:
        h.update(f"{key}:{float(probability).hex()};".encode())
    return h.hexdigest()[:16]


def brute_force_skyline(
    values: np.ndarray, probabilities: np.ndarray, keys: np.ndarray
) -> Dict[int, float]:
    """Eq. 3 for every tuple of a centralized database, from the definition.

    Written here, in numpy, so the oracle shares no code with the
    program under test: ``P_sky(t) = P(t) · ∏_{t' ≺ t} (1 − P(t'))``
    where ``t' ≺ t`` iff ``t'`` is no larger on every dimension and
    smaller on at least one.
    """
    n = len(keys)
    no_worse = np.ones((n, n), dtype=bool)  # [i, j]: t_i ≤ t_j on every dimension
    better = np.zeros((n, n), dtype=bool)  # [i, j]: t_i < t_j on some dimension
    for column in values.T:
        no_worse &= column[:, None] <= column[None, :]
        better |= column[:, None] < column[None, :]
    products = np.where(no_worse & better, (1.0 - probabilities)[:, None], 1.0).prod(axis=0)
    return {int(k): float(p * x) for k, p, x in zip(keys, probabilities, products)}


def calibrate_ms() -> float:
    """A fixed pure-Python + numpy kernel: how fast is the host right now."""
    best = float("inf")
    data = np.arange(200_000, dtype=np.float64)[::-1].copy()
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        np.sort(data).sum()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------


@dataclass
class _Rounds:
    """Samples of R replays of one op list, plus their verdicts."""

    samples: List[List[OpSample]] = field(default_factory=list)
    makespans: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.samples)

    def best(self, attr: str) -> List[float]:
        """Per-op minimum of one timing over the rounds."""
        return [min(getattr(s, attr) for s in column) for column in zip(*self.samples)]

    def pooled(self, attr: str) -> List[float]:
        return [getattr(s, attr) for r in self.samples for s in r]

    def per_op(self, attr: str) -> float:
        first = self.samples[0]
        return sum(getattr(s, attr) for s in first) / len(first)

    def count(self, name: str) -> float:
        first = self.samples[0]
        return sum(s.counts.get(name, 0.0) for s in first) / len(first)

    def timing_ms(self, name: str) -> float:
        best = [min(s.timings[name] for s in column) for column in zip(*self.samples)]
        return sum(best) / len(best) * 1e3


async def _measure_round(
    workload: Workload, into: _Rounds, spans: Optional[SpanLog] = None
) -> None:
    gc.collect()
    if spans is not None:
        spans.next_round()
    samples, makespan = await workload.run_round(spans)
    into.makespans.append(makespan)
    # Verification, outside every timer: the answer digest against the
    # reference, and the books against the first round's.
    reference = into.samples[0] if into.samples else samples
    for op, (sample, want) in enumerate(zip(samples, workload.expected)):
        same_books = (
            sample.tuples == reference[op].tuples
            and sample.messages == reference[op].messages
        )
        if not (sample.ok and sample.digest == want and same_books):
            into.failed += 1
    into.samples.append(samples)


async def _fresh_setups(
    factory: Callable[[], Workload], repeats: int
) -> Tuple[Workload, List[float]]:
    """Time ``repeats`` fresh set-ups; keep the last one standing."""
    times: List[float] = []
    workload = factory()
    for i in range(repeats):
        if i:
            await workload.teardown()
            workload = factory()
        gc.collect()
        start = time.perf_counter()
        await workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def _end_to_end(rounds: _Rounds, setup_times: Sequence[float]) -> Dict[str, float]:
    latency = rounds.best("latency")
    return {
        "setup_s": min(setup_times),
        "latency_p50_ms": percentile(latency, 0.50) * 1e3,
        "latency_p90_ms": percentile(latency, 0.90) * 1e3,
        "first_result_p50_ms": percentile(rounds.best("first"), 0.50) * 1e3,
        "throughput_ops": len(latency) / min(rounds.makespans),
        "tuples_per_op": rounds.per_op("tuples"),
        "messages_per_op": rounds.per_op("messages"),
        "peak_rss_mb": peak_rss_mb(),
    }


async def _run_untraced(
    factory: Callable[[], Workload], setups: int, rounds: int, give_up_after: float
) -> Dict[str, Any]:
    began = time.perf_counter()
    workload, setup_times = await _fresh_setups(factory, setups)
    try:
        oracle_failures = await workload.build_references()
        if workload.warm_round:
            await workload.run_round()
        prepared = time.perf_counter()
        measured = _Rounds()
        for done in range(rounds):
            # The round count is fixed, so that counts and memory are
            # the same in every run; only a host several times slower
            # than the one the sizes were taken on stops early, to stay
            # inside the time the driver allows a run.
            if done >= MIN_ROUNDS and time.perf_counter() - began > give_up_after:
                break
            await _measure_round(workload, measured)
        ended = time.perf_counter()
    finally:
        await workload.teardown()
    metrics = _end_to_end(measured, setup_times)
    return {
        "metrics": metrics,
        "attempted": measured.attempted,
        "failed": measured.failed + oracle_failures,
        "notes": {
            "ops": len(measured.samples[0]),
            "rounds": len(measured.samples),
            "raw_samples": measured.attempted,
            "setups": len(setup_times),
            "prepare_wall_s": prepared - began,
            "rounds_wall_s": ended - prepared,
        },
    }


#: Rounds of a traced run: untraced and traced replays alternate, so
#: the tracing overhead is measured on the same standing state.
TRACE_ROUNDS = 2

#: Per-layer metric ← (span name, SpanLog reduction).
_SPAN_METRICS = {
    "site.build_ms": ("site.build", "ms_per_op"),
    "site.prepare_ms": ("site.prepare", "ms_per_op"),
    "site.prepare_calls": ("site.prepare", "calls_per_op"),
    "site.pop_us": ("site.pop", "us_per_call"),
    "site.probe_us": ("site.probe", "us_per_call"),
    "site.probe_batch_us": ("site.probe_batch", "us_per_call"),
    "site.fork_us": ("site.fork", "us_per_call"),
    "serve.submit_us": ("serve.submit", "us_per_call"),
    "net.rpc_wait_ms": ("net.rpc", "ms_per_op"),
    "stream.ingest_us": ("stream.ingest", "us_per_call"),
    "stream.publish_ms": ("stream.publish", "ms_per_op"),
    "stream.deliver_ms": ("stream.deliver", "ms_per_op"),
}

#: Spans that lie inside an op's wall time on the caller's thread; the
#: op wall minus their sum is the coordinator's (and scheduler's) own.
_INSIDE_OP = (
    "site.build",
    "site.fork",
    "site.prepare",
    "site.pop",
    "site.probe",
    "site.probe_batch",
    "site.queue_size",
)


async def _run_traced(factory: Callable[[], Workload]) -> Dict[str, Any]:
    calib = calibrate_ms()
    workload, setup_times = await _fresh_setups(factory, 1)
    spans = SpanLog()
    try:
        oracle_failures = await workload.build_references()
        if workload.warm_round:
            await workload.run_round()
        await workload.run_round(SpanLog())  # also builds what only traced rounds use
        plain, traced = _Rounds(), _Rounds()
        rss_growth = 0.0  # over the untraced rounds only: no span log in it
        for _ in range(TRACE_ROUNDS):
            rss_before = current_rss_mb()
            await _measure_round(workload, plain)
            rss_growth += current_rss_mb() - rss_before
            await _measure_round(workload, traced, spans)
        ops = len(traced.samples[0])
        metrics: Dict[str, float] = {}
        for metric, (span, reduction) in _SPAN_METRICS.items():
            reduce = getattr(spans, reduction)
            metrics[metric] = reduce(span) if reduction == "us_per_call" else reduce(span, ops)
        metrics["site.probe_calls"] = spans.calls_per_op("site.probe", ops) + spans.calls_per_op(
            "site.probe_batch", ops
        )
        # Exact per-op counts read off the program's own books.
        for name in sorted({k for s in traced.samples[0] for k in s.counts}):
            metrics[name] = traced.count(name)
        for name in sorted({k for s in traced.samples[0] for k in s.timings}):
            metrics[name] = traced.timing_ms(name)
        # By construction: residual + wrapped spans = traced op wall.
        op_wall_ms = workload.op_wall_ms(traced)
        if workload.has_site_spans:
            metrics["coordinator.self_ms"] = op_wall_ms - sum(
                spans.ms_per_op(span, ops) for span in _INSIDE_OP
            )
        metrics["serve.rss_mb_per_kop"] = rss_growth / (plain.attempted / 1000.0)
        plain_mean = sum(plain.best("latency")) / ops
        traced_mean = sum(traced.best("latency")) / ops
        metrics["trace.overhead_pct"] = (traced_mean - plain_mean) / plain_mean * 100.0
        metrics["jitter.latency_pooled_p90_ms"] = percentile(plain.pooled("latency"), 0.90) * 1e3
        metrics.update(await workload.layer_metrics())
        metrics["host.calib_ms"] = min(calib, calibrate_ms())
    finally:
        await workload.teardown()
    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(OUT_DIR / f"trace-{workload.name}.json")
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed + oracle_failures,
        "notes": {
            "ops": ops,
            "rounds": TRACE_ROUNDS,
            "traced_op_wall_ms": op_wall_ms,
            "setup_s": setup_times[0],
        },
    }


def run_workload(
    factory: Callable[[], Workload], setups: int, rounds: int, trace: bool, give_up_after: float
) -> Dict[str, Any]:
    """Run one workload in this process; returns metrics and verdicts.

    ``give_up_after``: seconds of wall time after which an untraced run
    on a slow host starts no further round.
    """
    if trace:
        return asyncio.run(_run_traced(factory))
    return asyncio.run(_run_untraced(factory, setups, rounds, give_up_after))
