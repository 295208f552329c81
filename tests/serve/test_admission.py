"""Admission control, backpressure, and per-tenant bandwidth budgets."""

from __future__ import annotations

import asyncio
import gc
import tracemalloc
import weakref
from typing import List

import pytest

from repro.core.tuples import UncertainTuple
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.serve import (
    AdmissionPolicy,
    AdmissionRejected,
    QuerySpec,
    SessionState,
    SkylineService,
    TenantLedger,
)
from repro.stream import CountWindow, StandingQuery

from ..conftest import make_random_database

SITES = 3
DB = make_random_database(90, 2, seed=17, grid=8)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]
SPEC = QuerySpec(threshold=0.4)


# ----------------------------------------------------------------------
# AdmissionPolicy / TenantLedger units


def test_admission_policy_validates_its_limits():
    with pytest.raises(ValueError):
        AdmissionPolicy(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(max_queued=-1)


def test_tenant_ledger_meters_only_listed_tenants():
    ledger = TenantLedger({"metered": 100.0})
    assert ledger.within_budget("anonymous")  # unmetered: infinite budget
    assert ledger.charge("anonymous", 1e9)
    assert ledger.remaining("anonymous") is None
    assert ledger.charge("metered", 60.0)
    assert ledger.remaining("metered") == 40.0
    assert not ledger.charge("metered", 60.0)  # over: charge lands, gate trips
    assert ledger.spent["metered"] == 120.0
    assert not ledger.within_budget("metered")


def test_tenant_ledger_budgets_can_be_raised_and_lifted():
    ledger = TenantLedger({"t": 10.0})
    ledger.charge("t", 15.0)
    assert not ledger.within_budget("t")
    ledger.set_budget("t", 100.0)
    assert ledger.within_budget("t")
    ledger.set_budget("t", None)
    assert ledger.remaining("t") is None


# ----------------------------------------------------------------------
# concurrency caps and queue backpressure


def test_inflight_never_exceeds_the_admission_cap():
    async def drive() -> int:
        policy = AdmissionPolicy(max_inflight=2, max_queued=16)
        peak = 0
        async with SkylineService(PARTITIONS, policy=policy) as service:
            sessions = [await service.submit(SPEC) for _ in range(6)]
            while service.queue_depth or service.inflight:
                peak = max(peak, service.inflight)
                await asyncio.sleep(0)
            assert all(session.done for session in sessions)
        return peak

    peak = asyncio.run(drive())
    assert 1 <= peak <= 2


def test_full_queue_rejects_when_asked_not_to_wait():
    async def drive() -> None:
        policy = AdmissionPolicy(max_inflight=1, max_queued=1)
        async with SkylineService(PARTITIONS, policy=policy) as service:
            # The scheduler has not run yet: the first submit fills the
            # only queue slot, so an impatient second submit sheds.
            await service.submit(SPEC)
            with pytest.raises(AdmissionRejected, match="queue full"):
                await service.submit(SPEC, wait=False)
            await service.drain()

    asyncio.run(drive())


def test_full_queue_blocks_then_admits_when_asked_to_wait():
    async def drive() -> List[SessionState]:
        policy = AdmissionPolicy(max_inflight=1, max_queued=1)
        async with SkylineService(PARTITIONS, policy=policy) as service:
            sessions = []
            for _ in range(4):  # 4 queries through a 1-deep queue
                sessions.append(await service.submit(SPEC, wait=True))
            await service.drain()
        return [s.state for s in sessions]

    states = asyncio.run(drive())
    assert states == [SessionState.FINISHED] * 4


def test_submitting_to_a_stopped_service_is_an_error():
    async def drive() -> None:
        service = SkylineService(PARTITIONS)
        with pytest.raises(RuntimeError, match="not started"):
            await service.submit(SPEC)

    asyncio.run(drive())


def test_close_finishes_inflight_work_first():
    async def drive() -> List[SessionState]:
        service = SkylineService(PARTITIONS)
        async with service:
            sessions = [await service.submit(SPEC) for _ in range(3)]
        # __aexit__ drains before stopping: nothing left half-run.
        return [s.state for s in sessions]

    assert asyncio.run(drive()) == [SessionState.FINISHED] * 3


# ----------------------------------------------------------------------
# tenant budgets


def test_over_budget_tenant_is_aborted_and_then_rejected():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"metered": 40.0}
        ) as service:
            metered = QuerySpec(threshold=0.3, tenant="metered")
            sessions = [await service.submit(metered) for _ in range(4)]
            await service.drain()
            states = {s.state for s in sessions}
            # The budget is far below four runs' bandwidth: at least one
            # session was cut off mid-flight at a step boundary.
            assert SessionState.ABORTED in states
            aborted = [s for s in sessions if s.state is SessionState.ABORTED]
            assert all("budget" in (s.abort_reason or "") for s in aborted)
            assert service.ledger.spent["metered"] >= 40.0
            # ... and new submissions shed at the door.
            with pytest.raises(AdmissionRejected, match="budget"):
                await service.submit(metered)
            # Raising the budget reopens admission.
            service.ledger.set_budget("metered", 1e9)
            reopened = await service.submit(metered)
            await service.drain()
            assert reopened.state is SessionState.FINISHED

    asyncio.run(drive())


def test_budgets_are_per_tenant_not_global():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"capped": 1.0}
        ) as service:
            capped = await service.submit(QuerySpec(threshold=0.4, tenant="capped"))
            free = await service.submit(QuerySpec(threshold=0.4, tenant="free"))
            await service.drain()
            assert capped.state is SessionState.ABORTED
            assert free.state is SessionState.FINISHED

    asyncio.run(drive())


def test_aborted_sessions_release_their_coordinator():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"capped": 1.0}
        ) as service:
            session = await service.submit(QuerySpec(threshold=0.3, tenant="capped"))
            await service.drain()
            assert session.state is SessionState.ABORTED
            # The abort closed the stepping generator, which runs the
            # coordinator's finally: close() — no half-open pools.
            assert session.result is None
            assert session.latency is not None

    asyncio.run(drive())


# ----------------------------------------------------------------------
# what a standing service keeps: live work only


def _lifecycle_spec(i: int) -> QuerySpec:
    """Cycle plain, top-k, crash-and-return chaos and failover queries."""
    kind = i % 4
    if kind == 0:
        return QuerySpec(threshold=0.4, algorithm="dsud")
    if kind == 1:
        return QuerySpec(threshold=0.4, algorithm="edsud", limit=3)
    retry = RetryPolicy(max_attempts=2, base_backoff=1e-4, max_backoff=1e-3)
    if kind == 2:
        schedule = FaultSchedule(seed=i).crash(1, at_call=6, until_call=24)
        return QuerySpec(
            threshold=0.3, algorithm="dsud", fault_schedule=schedule, retry_policy=retry
        )
    return QuerySpec(
        threshold=0.3,
        algorithm="dsud",
        replication_factor=2,
        fault_schedule=FaultSchedule(seed=i).crash(0, at_call=0),
        retry_policy=retry,
    )


def test_a_standing_service_forgets_the_sessions_it_finished():
    async def drive() -> None:
        async with SkylineService(PARTITIONS) as service:
            for i in range(20):  # warm-up: templates, memos, replica forks
                await service.submit(_lifecycle_spec(i))
            await service.drain()
            refs: List[weakref.ref] = []
            sites_lost = failovers = 0
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for first in range(0, 200, 4):
                    sessions = [
                        await service.submit(_lifecycle_spec(i))
                        for i in range(first, first + 4)
                    ]
                    await service.drain()
                    for session in sessions:
                        assert session.state is SessionState.FINISHED
                        assert session.result is not None
                        sites_lost += session.result.stats.sites_lost
                        failovers += session.result.stats.failovers
                        refs.append(weakref.ref(session.coordinator))
                        refs.extend(weakref.ref(s) for s in session.coordinator.sites)
                    del sessions, session  # the caller drops what it was served
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert sites_lost >= 100 and failovers >= 50  # the chaos bit
            assert len(refs) == 200 * (1 + SITES)
            assert [ref for ref in refs if ref() is not None] == []
            assert grown < 1 << 20, f"{grown / 2**20:.2f} MB retained over 200 queries"

    asyncio.run(drive())


def test_cancelled_subscriptions_are_forgotten_and_active_ones_keep_receiving():
    async def drive() -> None:
        service = SkylineService(stream_windows=[CountWindow(16)], auto_publish=False)
        async with service:
            live = await service.subscribe(StandingQuery(threshold=0.3))
            dropped = await service.subscribe(StandingQuery(threshold=0.3))
            service.unsubscribe(dropped)
            unsubscribed = weakref.ref(dropped)
            del dropped
            for key in range(3):
                service.ingest(0, UncertainTuple(key, (float(key), 3.0 - key), 0.9))
                await service.publish()
                assert await live.next_batch()
            closing = weakref.ref(await service.subscribe(StandingQuery(threshold=0.5)))
        # close() cancelled the third subscription; nobody else holds it.
        gc.collect()
        assert unsubscribed() is None and closing() is None
        assert not live.active

    asyncio.run(drive())


def test_drain_returns_nothing():
    async def drive() -> None:
        async with SkylineService(PARTITIONS) as service:
            session = await service.submit(SPEC)
            assert await service.drain() is None
            assert session.state is SessionState.FINISHED

    asyncio.run(drive())
