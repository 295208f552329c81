"""The serving layer's headline contract: concurrency changes nothing.

Every session served concurrently over shared site forks must be
bit-identical to the same :class:`QuerySpec` run solo through
:func:`~repro.distributed.query.distributed_skyline` on fresh sites —
same answer (keys *and* probabilities), same progressive emission
order, same bandwidth bill, same per-kind message counts, same
coverage verdict.  Including under chaos fault schedules and with
buddy replication, where the standing replica book substitutes
pre-provisioned forks for solo shipping.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.core.dominance import Preference
from repro.distributed.query import distributed_skyline
from repro.distributed.runner import RunResult
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.serve import AdmissionPolicy, QuerySpec, SkylineService

from ..conftest import make_random_database

SITES = 5
DB = make_random_database(240, 3, seed=41)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]


def _solo(spec: QuerySpec) -> RunResult:
    """The reference run: fresh sites, one query, nothing shared."""
    return distributed_skyline(
        PARTITIONS,
        spec.threshold,
        algorithm=spec.algorithm,
        preference=spec.preference,
        limit=spec.limit,
        batch_size=spec.batch_size,
        fault_schedule=spec.fault_schedule,
        retry_policy=spec.retry_policy,
        replication_factor=spec.replication_factor,
        edsud_config=spec.edsud_config,
    )


def _fingerprint(result: RunResult) -> Dict[str, object]:
    """Everything observable about a run, down to the message books."""
    coverage = result.coverage
    return {
        "answer": [(m.key, m.probability) for m in result.answer],
        "emissions": [
            (e.key, e.global_probability, e.tuples_transmitted)
            for e in result.progress.events
        ],
        "tuples": result.stats.tuples_transmitted,
        "messages": result.stats.messages,
        "by_kind": dict(result.stats.by_kind),
        "failovers": result.stats.failovers,
        "sites_lost": result.stats.sites_lost,
        "complete": coverage.complete if coverage else None,
        "down_sites": coverage.down_sites if coverage else None,
    }


def _serve_all(
    specs: List[QuerySpec], max_inflight: int = 8
) -> List[Optional[RunResult]]:
    """Run every spec concurrently on one service; results in order."""

    async def drive() -> List[Optional[RunResult]]:
        policy = AdmissionPolicy(max_inflight=max_inflight, max_queued=len(specs))
        async with SkylineService(PARTITIONS, policy=policy) as service:
            sessions = [await service.submit(spec) for spec in specs]
            await service.drain()
        return [session.result for session in sessions]

    return asyncio.run(drive())


def _chaos(seed: int, victim: int, until: Optional[int] = 24) -> Tuple[
    FaultSchedule, RetryPolicy
]:
    schedule = FaultSchedule(seed=seed).crash(victim, at_call=6, until_call=until)
    policy = RetryPolicy(max_attempts=2, base_backoff=1e-4, max_backoff=1e-3)
    return schedule, policy


def test_eight_concurrent_sessions_each_match_their_solo_run():
    specs = [
        QuerySpec(threshold=0.3, algorithm="dsud"),
        QuerySpec(threshold=0.5, algorithm="dsud"),
        QuerySpec(threshold=0.3, algorithm="edsud"),
        QuerySpec(threshold=0.6, algorithm="edsud"),
        QuerySpec(threshold=0.4, algorithm="dsud", limit=5),
        QuerySpec(threshold=0.4, algorithm="edsud", limit=3),
        QuerySpec(threshold=0.3, algorithm="dsud", batch_size=4),
        QuerySpec(
            threshold=0.35, algorithm="dsud", preference=Preference(subspace=(0, 2))
        ),
    ]
    served = _serve_all(specs, max_inflight=8)
    for spec, result in zip(specs, served):
        assert result is not None, f"{spec} did not finish"
        assert _fingerprint(result) == _fingerprint(_solo(spec)), spec
        assert result.coverage is not None and result.coverage.complete


def test_identical_specs_served_together_stay_identical():
    spec = QuerySpec(threshold=0.4, algorithm="edsud")
    served = _serve_all([spec, spec, spec])
    prints = [_fingerprint(r) for r in served if r is not None]
    assert len(prints) == 3
    assert prints[0] == prints[1] == prints[2] == _fingerprint(_solo(spec))


def test_chaos_session_matches_solo_while_sharing_the_cluster():
    schedule, retry = _chaos(seed=99, victim=1)
    chaotic = QuerySpec(
        threshold=0.3, algorithm="dsud", fault_schedule=schedule, retry_policy=retry
    )
    noise = [
        QuerySpec(threshold=0.5, algorithm="dsud"),
        QuerySpec(threshold=0.4, algorithm="edsud"),
        QuerySpec(threshold=0.3, algorithm="dsud", limit=5),
    ]
    served = _serve_all([chaotic] + noise)
    chaos_print = _fingerprint(served[0])
    solo_print = _fingerprint(_solo(chaotic))
    assert chaos_print == solo_print
    # The schedule actually bit: the session lost (and re-found) a site.
    assert chaos_print["sites_lost"] >= 1
    # The bystanders never see the chaotic session's private faults.
    for spec, result in zip(noise, served[1:]):
        fp = _fingerprint(result)
        assert fp == _fingerprint(_solo(spec))
        assert fp["sites_lost"] == 0


def test_replicated_chaos_session_fails_over_exactly_like_solo():
    schedule, retry = _chaos(seed=7, victim=2, until=None)  # permanent crash
    spec = QuerySpec(
        threshold=0.3,
        algorithm="dsud",
        replication_factor=2,
        fault_schedule=schedule,
        retry_policy=retry,
    )
    noise = QuerySpec(threshold=0.5, algorithm="edsud")
    served = _serve_all([spec, noise, noise])
    fp = _fingerprint(served[0])
    assert fp == _fingerprint(_solo(spec))
    # Failover actually happened and the answer stayed exact: the
    # standing replica forks substitute for solo-shipped replicas.
    assert fp["failovers"] >= 1
    assert fp["complete"] is True


def test_replicated_topk_chaos_session_matches_solo():
    schedule, retry = _chaos(seed=13, victim=0)
    spec = QuerySpec(
        threshold=0.3,
        algorithm="edsud",
        limit=5,
        replication_factor=2,
        fault_schedule=schedule,
        retry_policy=retry,
    )
    served = _serve_all([spec, QuerySpec(threshold=0.4)])
    assert _fingerprint(served[0]) == _fingerprint(_solo(spec))


def test_serving_throughput_amortizes_site_preparation():
    """Shared templates: N sessions at one threshold build one index."""

    async def drive() -> Tuple[int, int]:
        async with SkylineService(PARTITIONS) as service:
            for _ in range(4):
                await service.submit(QuerySpec(threshold=0.4))
            await service.drain()
            return (
                sum(h.templates_built for h in service.hosts),
                sum(h.forks_served for h in service.hosts),
            )

    templates, forks = asyncio.run(drive())
    assert templates == SITES  # one template per site, not per session
    assert forks == 4 * SITES  # but every session got private views


def test_an_injected_delay_never_stalls_the_event_loop():
    """A DELAY fault in a served spec is awaited by that session's pump:
    the loop keeps running everyone else (a ticker here) through the
    150 ms nap, and the answer and books are still the solo run's.  At
    cd4b865 the wrapper slept with ``time.sleep`` on the loop thread."""
    schedule = FaultSchedule(seed=3).slow(2, delay=0.15, at_call=4, until_call=5)
    spec = QuerySpec(threshold=0.4, algorithm="dsud", fault_schedule=schedule)

    async def drive() -> Tuple[Optional[RunResult], float]:
        loop = asyncio.get_running_loop()
        longest_gap = 0.0
        ticking = True

        async def ticker() -> None:
            nonlocal longest_gap
            last = loop.time()
            while ticking:
                await asyncio.sleep(0.001)
                now = loop.time()
                longest_gap = max(longest_gap, now - last)
                last = now

        async with SkylineService(PARTITIONS) as service:
            session = await service.submit(spec)  # site forks built here
            task = asyncio.ensure_future(ticker())
            started = loop.time()
            await service.drain()
            elapsed = loop.time() - started
            ticking = False
            await task
        assert elapsed >= 0.15  # the delay really was served
        return session.result, longest_gap

    result, longest_gap = asyncio.run(drive())
    assert result is not None
    assert longest_gap < 0.1, f"event loop stalled for {longest_gap * 1e3:.0f} ms"
    assert _fingerprint(result) == _fingerprint(_solo(spec))
