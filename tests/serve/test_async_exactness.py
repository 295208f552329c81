"""``asteps()`` is ``steps()`` in await-clothing: bit-identical, cancellable.

The tentpole contract of the awaitable coordinator: driving the *same*
protocol script through the async funnel — chaos schedules, replica
failover, top-k limits and all — must produce byte-for-byte the
answer, emission order, message books, and coverage verdict of the
synchronous run.  Plus the teardown half: cancelling an in-flight
``asteps()`` await propagates cleanly and leaves the sites serving.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

import pytest

from repro.distributed.dsud import DSUD
from repro.distributed.query import (
    adistributed_skyline,
    build_coordinator,
    distributed_skyline,
)
from repro.distributed.runner import RunResult
from repro.distributed.site import LocalSite
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.net.aio import AsyncLocalEndpoint
from repro.serve import QuerySession, QuerySpec

from ..conftest import make_random_database

SITES = 4
DB = make_random_database(200, 3, seed=23)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]


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


def _chaos(seed: int, victim: int, until: Optional[int]) -> Tuple[
    FaultSchedule, RetryPolicy
]:
    schedule = FaultSchedule(seed=seed).crash(victim, at_call=6, until_call=until)
    policy = RetryPolicy(max_attempts=2, base_backoff=1e-4, max_backoff=1e-3)
    return schedule, policy


def _cases():
    chaos, retry = _chaos(seed=5, victim=1, until=24)
    perma, perma_retry = _chaos(seed=8, victim=2, until=None)
    for algorithm in ("dsud", "edsud"):
        yield pytest.param(
            {"algorithm": algorithm}, id=f"{algorithm}-plain"
        )
        yield pytest.param(
            {
                "algorithm": algorithm,
                "fault_schedule": chaos,
                "retry_policy": retry,
            },
            id=f"{algorithm}-chaos",
        )
        yield pytest.param(
            {
                "algorithm": algorithm,
                "replication_factor": 2,
                "fault_schedule": perma,
                "retry_policy": perma_retry,
            },
            id=f"{algorithm}-rf2-failover",
        )
        yield pytest.param(
            {"algorithm": algorithm, "limit": 4}, id=f"{algorithm}-limit"
        )


@pytest.mark.parametrize("kwargs", _cases())
def test_async_run_is_bit_identical_to_sync(kwargs):
    sync_result = distributed_skyline(PARTITIONS, 0.3, **kwargs)
    async_result = asyncio.run(adistributed_skyline(PARTITIONS, 0.3, **kwargs))
    assert _fingerprint(async_result) == _fingerprint(sync_result)
    # The scenario actually exercised what its name claims.
    if kwargs.get("replication_factor", 1) > 1:
        assert async_result.stats.failovers >= 1
    elif kwargs.get("fault_schedule") is not None:
        assert async_result.stats.sites_lost >= 1
    if kwargs.get("limit") is not None:
        assert len(async_result.answer) <= kwargs["limit"]


def test_async_iterator_yields_exactly_as_often_as_sync():
    sync_steps = sum(
        1 for _ in build_coordinator(PARTITIONS, 0.4, algorithm="dsud").steps()
    )

    async def count() -> int:
        coordinator = build_coordinator(PARTITIONS, 0.4, algorithm="dsud")
        n = 0
        async for _ in coordinator.asteps():
            n += 1
        return n

    assert asyncio.run(count()) == sync_steps


# ----------------------------------------------------------------------
# cancellation


def _async_sites():
    return [
        AsyncLocalEndpoint(LocalSite(i, part))
        for i, part in enumerate(PARTITIONS)
    ]


def test_cancelled_asteps_await_leaves_sites_consistent():
    """Cancel a step mid-await: the error propagates, the generator's
    ``finally`` runs, and every site still serves RPCs afterwards."""

    async def scenario() -> None:
        sites = _async_sites()
        coordinator = DSUD(sites, 0.3)
        agen = coordinator.asteps()
        await agen.__anext__()  # prepared and into the feedback loop
        task = asyncio.ensure_future(agen.__anext__())
        await asyncio.sleep(0)  # let the step park on a site await
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        # The async generator is finished: its finally closed the
        # script, so aclose is a clean no-op and further draws see
        # exhaustion, not a wedged script.
        await agen.aclose()
        with pytest.raises(StopAsyncIteration):
            await agen.__anext__()
        # Sites are left at a request boundary: no lock held, every
        # endpoint still answers (a fresh query over forks would work).
        for endpoint in sites:
            assert isinstance(await endpoint.queue_size(), int)

    asyncio.run(scenario())


def test_cancelled_session_step_can_still_be_aborted():
    async def scenario() -> None:
        spec = QuerySpec(threshold=0.3, algorithm="dsud")
        coordinator = DSUD(_async_sites(), spec.threshold)
        session = QuerySession(1, spec, coordinator)
        session.start()
        assert not await session.step()
        task = asyncio.ensure_future(session.step())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        # Cancellation is not a site fault: the session is not FAILED,
        # and an explicit abort still tears it down cleanly.
        assert not session.done
        await session.abort("caller cancelled")
        assert session.done
        assert session.abort_reason == "caller cancelled"

    asyncio.run(scenario())
