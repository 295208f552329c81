"""Per-query session state: one progressive query inside the service.

A :class:`QuerySession` owns everything a single query mutates — its
coordinator (heap / residents, :class:`~repro.fault.coverage.CoverageTracker`,
:class:`~repro.distributed.topk.TopKBuffer`, per-query
:class:`~repro.net.stats.NetworkStats`) plus its per-session site forks
or dialed remote proxies — and exposes the query as a sequence of
awaitable :meth:`step` calls, one per coordinator iteration.  Steps
drive :meth:`~repro.distributed.coordinator.Coordinator.asteps`, so a
session blocked on a socket reply parks on the event loop instead of
the scheduler thread: one session's I/O wait overlaps another's
compute.  Because no mutable state is shared between sessions, the
interleaving order cannot change any session's answer, messages, or
emission order (the exactness suites pin this, sync and async alike).
"""

from __future__ import annotations

import asyncio
import enum
import inspect
import time
from dataclasses import dataclass
from typing import Any, AsyncGenerator, List, Optional

from ..core.dominance import Preference
from ..distributed.coordinator import Coordinator
from ..distributed.edsud import EDSUDConfig
from ..distributed.runner import RunResult
from ..fault.retry import RetryPolicy
from ..fault.schedule import FaultSchedule

__all__ = ["QuerySpec", "SessionState", "QuerySession"]


@dataclass(frozen=True)
class QuerySpec:
    """Everything that defines one query, independent of the cluster.

    The knobs mirror :func:`~repro.distributed.query.distributed_skyline`
    so a spec served concurrently is comparable, bit for bit, with the
    same spec run solo.  ``tenant`` names the bandwidth-budget account
    the session bills against.
    """

    threshold: float
    algorithm: str = "dsud"
    preference: Optional[Preference] = None
    limit: Optional[int] = None
    batch_size: int = 1
    replication_factor: int = 1
    fault_schedule: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    edsud_config: Optional[EDSUDConfig] = None
    tenant: str = "default"


class SessionState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    ABORTED = "aborted"


class QuerySession:
    """One in-flight query: a coordinator driven step by step."""

    def __init__(
        self, query_id: int, spec: QuerySpec, coordinator: Coordinator
    ) -> None:
        self.query_id = query_id
        self.spec = spec
        self.coordinator = coordinator
        self.state = SessionState.QUEUED
        self.result: Optional[RunResult] = None
        self.error: Optional[BaseException] = None
        self.abort_reason: Optional[str] = None
        #: Wall-clock marks (``perf_counter`` seconds) for the latency
        #: percentiles ``repro serve`` and ``perf/run.py`` report.
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.first_result_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Tuples already charged to the tenant ledger (the service
        #: bills the delta after every step).
        self.billed_tuples = 0
        self.steps_taken = 0
        #: Remote endpoints dialed for this session alone; released via
        #: :meth:`release_endpoints` once the session is terminal.
        self.owned_endpoints: List[Any] = []
        self._steps: Optional[AsyncGenerator[None, None]] = None
        #: Bandwidth book snapshot taken when the session goes terminal.
        #: Once set, :attr:`transmitted_tuples` stops tracking the live
        #: coordinator stats, so nothing the transport finishes after
        #: abort can ever reach the tenant ledger.
        self._frozen_tuples: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in (
            SessionState.FINISHED,
            SessionState.FAILED,
            SessionState.ABORTED,
        )

    @property
    def transmitted_tuples(self) -> int:
        if self._frozen_tuples is not None:
            return self._frozen_tuples
        return int(self.coordinator.stats.tuples_transmitted)

    def _freeze_tuples(self) -> None:
        if self._frozen_tuples is None:
            self._frozen_tuples = int(self.coordinator.stats.tuples_transmitted)

    def start(self) -> None:
        if self.state is not SessionState.QUEUED:
            raise RuntimeError(f"session {self.query_id} already {self.state.value}")
        self.state = SessionState.RUNNING
        self.started_at = time.perf_counter()
        self._steps = self.coordinator.asteps()

    async def step(self) -> bool:
        """Advance one coordinator iteration; True when the query ended.

        Awaits the coordinator's async iterator, so while this session
        waits on a site socket the event loop runs its siblings.
        ``steps_taken`` counts *completed* iterations only: the counter
        moves after the iterator yields, never on the probe that merely
        discovers exhaustion and never on a step that raises.  A fault
        that escapes the coordinator (anything beyond the transport
        faults it degrades through) fails the session rather than the
        service.
        """
        if self.state is not SessionState.RUNNING or self._steps is None:
            return True
        try:
            await self._steps.__anext__()
            finished = False
            self.steps_taken += 1
        except StopAsyncIteration:
            finished = True
        except asyncio.CancelledError:
            # Cancellation is the caller's verdict, not a site fault:
            # the generator's ``finally`` has already closed the script,
            # so re-raise with books consistent.
            raise
        except BaseException as exc:
            self.error = exc
            self.state = SessionState.FAILED
            self.finished_at = time.perf_counter()
            self._steps = None
            self._freeze_tuples()
            return True
        if self.first_result_at is None and self.coordinator.results:
            self.first_result_at = time.perf_counter()
        if finished:
            self.result = self.coordinator.finish()
            if self.first_result_at is None and self.coordinator.results:
                self.first_result_at = time.perf_counter()
            self.state = SessionState.FINISHED
            self.finished_at = time.perf_counter()
            self._steps = None
            self._freeze_tuples()
        return finished

    async def abort(self, reason: str) -> None:
        """Stop a session early (admission kill, budget exhaustion).

        Closing the step iterator closes the coordinator's script at
        its last completed request boundary.  The bandwidth book is
        frozen *before* this returns — whatever the coordinator's
        ``tuples_transmitted`` reads afterwards can never be billed to
        the tenant, because :attr:`transmitted_tuples` now reads the
        frozen snapshot.
        """
        if self.done:
            return
        steps, self._steps = self._steps, None
        if steps is not None:
            await steps.aclose()
        self.abort_reason = reason
        self.state = SessionState.ABORTED
        self.finished_at = time.perf_counter()
        self._freeze_tuples()

    async def release_endpoints(self) -> None:
        """Close remote endpoints this session dialed for itself.

        Idempotent; endpoints whose ``close`` is a coroutine (the async
        TCP proxies) are awaited so the sockets are really gone before
        the service reports the session finished.
        """
        endpoints, self.owned_endpoints = self.owned_endpoints, []
        for endpoint in endpoints:
            closer = getattr(endpoint, "close", None)
            if closer is None:
                continue
            try:
                outcome = closer()
                if inspect.isawaitable(outcome):
                    await outcome
            except (ConnectionError, OSError):
                continue

    # ------------------------------------------------------------------
    # bench-facing latency marks
    # ------------------------------------------------------------------

    @property
    def latency(self) -> Optional[float]:
        """Submission → completion, in seconds (None while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def first_result_latency(self) -> Optional[float]:
        """Submission → first progressive result, in seconds."""
        if self.first_result_at is None:
            return None
        return self.first_result_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"QuerySession(id={self.query_id}, q={self.spec.threshold}, "
            f"algorithm={self.spec.algorithm!r}, state={self.state.value})"
        )
