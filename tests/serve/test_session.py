"""QuerySession bookkeeping: step counting, abort billing, teardown.

Pins the serving-layer bugfix sweep: ``steps_taken`` counts completed
coordinator iterations (not the exhaustion probe, not a raising step),
and an aborted session's bandwidth book is frozen the moment
``abort()`` returns — an in-flight broadcast finishing afterwards can
never be billed to the tenant.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.distributed.query import build_coordinator
from repro.net.message import MessageKind
from repro.serve import (
    QuerySession,
    QuerySpec,
    SessionState,
    SkylineService,
)

from ..conftest import make_random_database

SITES = 3
DB = make_random_database(120, 2, seed=31, grid=10)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]


def _session(threshold: float = 0.4, **spec_kwargs) -> QuerySession:
    spec = QuerySpec(threshold=threshold, **spec_kwargs)
    coordinator = build_coordinator(
        PARTITIONS, spec.threshold, algorithm=spec.algorithm, limit=spec.limit
    )
    return QuerySession(1, spec, coordinator)


# ----------------------------------------------------------------------
# steps_taken


def test_steps_taken_counts_completed_iterations_exactly():
    """N yields → N steps: the probe that discovers exhaustion is not
    an iteration and must not inflate the counter (the old off-by-one)."""
    sync_steps = sum(
        1 for _ in build_coordinator(PARTITIONS, 0.4, algorithm="dsud").steps()
    )

    async def drive() -> int:
        session = _session(0.4)
        session.start()
        while not await session.step():
            pass
        assert session.state is SessionState.FINISHED
        return session.steps_taken

    assert asyncio.run(drive()) == sync_steps


def test_step_after_completion_reports_done_without_counting():
    async def drive() -> None:
        session = _session(0.5)
        session.start()
        while not await session.step():
            pass
        taken = session.steps_taken
        assert await session.step() is True
        assert session.steps_taken == taken

    asyncio.run(drive())


def test_a_raising_step_fails_the_session_and_is_not_counted():
    async def drive() -> None:
        session = _session(0.4)
        session.start()
        assert not await session.step()
        taken = session.steps_taken

        async def explode():
            raise RuntimeError("site melted")
            yield  # pragma: no cover

        old = session._steps
        session._steps = explode()
        assert await session.step() is True
        assert session.state is SessionState.FAILED
        assert isinstance(session.error, RuntimeError)
        assert session.steps_taken == taken
        await old.aclose()

    asyncio.run(drive())


# ----------------------------------------------------------------------
# post-abort billing freeze


def test_aborted_session_bandwidth_book_is_frozen():
    async def drive() -> None:
        session = _session(0.3)
        session.start()
        assert not await session.step()
        assert not await session.step()
        await session.abort("admission kill")
        assert session.state is SessionState.ABORTED
        frozen = session.transmitted_tuples
        # A straggling in-flight broadcast drains after abort() returned
        # and lands on the coordinator's books ...
        session.coordinator.stats.bill(MessageKind.FEEDBACK, "server", "site-0")
        assert session.coordinator.stats.tuples_transmitted == frozen + 1
        # ... but the session's billable figure never moves again.
        assert session.transmitted_tuples == frozen

    asyncio.run(drive())


def test_finished_session_bandwidth_book_is_frozen_too():
    async def drive() -> None:
        session = _session(0.5)
        session.start()
        while not await session.step():
            pass
        frozen = session.transmitted_tuples
        session.coordinator.stats.bill(MessageKind.DATA, "site-0", "server")
        assert session.transmitted_tuples == frozen

    asyncio.run(drive())


def test_tenant_is_never_billed_past_abort():
    """Service-level pin: once the budget abort lands, later scheduler
    passes cannot grow the tenant's spent figure from that session."""

    async def drive() -> float:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"capped": 2.0}
        ) as service:
            session = await service.submit(
                QuerySpec(threshold=0.3, tenant="capped")
            )
            await service.drain()
            assert session.state is SessionState.ABORTED
            spent_at_abort = service.ledger.spent["capped"]
            # Simulate the straggler after the service already settled.
            session.coordinator.stats.bill(MessageKind.FEEDBACK, "server", "site-1")
            for _ in range(3):
                await asyncio.sleep(0)
            assert session.billed_tuples == session.transmitted_tuples
            return service.ledger.spent["capped"] - spent_at_abort

    assert asyncio.run(drive()) == 0.0


# ----------------------------------------------------------------------
# endpoint teardown


class _Recorder:
    def __init__(self, log: List[str], name: str, awaitable: bool) -> None:
        self.log = log
        self.name = name
        self.awaitable = awaitable

    def close(self):
        if not self.awaitable:
            self.log.append(self.name)
            return None

        async def _do() -> None:
            self.log.append(self.name)

        return _do()


def test_release_endpoints_awaits_async_closers_once():
    async def drive() -> List[str]:
        session = _session(0.4)
        log: List[str] = []
        session.owned_endpoints = [
            _Recorder(log, "sync", awaitable=False),
            _Recorder(log, "async", awaitable=True),
        ]
        await session.release_endpoints()
        await session.release_endpoints()  # idempotent: nothing re-closed
        return log

    assert asyncio.run(drive()) == ["sync", "async"]


def test_start_twice_is_an_error():
    session = _session(0.4)

    async def drive() -> None:
        session.start()
        with pytest.raises(RuntimeError, match="already"):
            session.start()
        await session.abort("test over")

    asyncio.run(drive())
