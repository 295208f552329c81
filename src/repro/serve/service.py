"""The :class:`SkylineService`: many progressive queries, one cluster.

The service multiplexes concurrent :class:`~repro.serve.session.QuerySession`\\ s
on a single asyncio event loop, over either shared in-process
:class:`~repro.serve.sites.SharedSiteHost` partitions or a *remote*
cluster of site servers dialed through
:func:`~repro.net.aio.connect_async_sites`.  Scheduling is cooperative
and fair: every pass admits queued sessions up to the in-flight cap,
awaits one coordinator iteration from each running session, then
yields to the loop so submitters (and any async transport I/O) run
between passes.  With ``overlap_steps`` (the default) the per-session
steps of one pass run under ``asyncio.gather``, so a session parked on
a site socket donates the loop to its siblings' compute — the pass
lasts as long as its slowest step, not the sum.

Correctness under concurrency is by *isolation*, not locking: a
session's coordinator, site forks (or privately dialed proxies), fault
wrappers, and stats books are all private, so stepping order cannot
change any query's answer, message accounting, or emission order —
each session stays bit-identical to the same spec run solo (the
exactness suites pin this, sync and async alike).  The only shared
query-path state is deliberately one-way:

* the hosts' template memo (an answer cache — hit or miss, same bytes),
* the :class:`~repro.fault.liveness.LivenessBook`, advanced once per
  scheduling pass so all *fault-free* sessions share one liveness
  probe per dead endpoint per pass.  Sessions running a private chaos
  :class:`~repro.fault.schedule.FaultSchedule` get no book (their
  verdicts are theirs alone), which keeps them exactly on the solo
  probe cadence.

Use as an async context manager::

    async with SkylineService(partitions, policy=AdmissionPolicy(4)) as svc:
        sessions = [await svc.submit(spec) for spec in specs]
        await svc.drain()  # the sessions are the caller's; svc keeps none

or, against site servers hosted elsewhere (addresses as produced by
:func:`~repro.net.sockets.host_sites_in_processes`)::

    async with SkylineService(remote_sites=addresses) as svc:
        ...
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Mapping, Optional, Sequence, Tuple, cast

from ..core.tuples import UncertainTuple
from ..distributed.coordinator import Coordinator
from ..distributed.query import ALGORITHMS, PROGRESSIVE, assemble_coordinator
from ..distributed.site import SiteConfig
from ..fault.injection import FaultyEndpoint
from ..fault.liveness import LivenessBook
from ..net.aio import connect_async_sites
from ..net.stats import LatencyModel
from ..net.transport import SiteEndpoint
from ..replica.manager import ReplicaManager
from ..stream.coordinator import ContinuousCoordinator
from ..stream.deltas import ResultDelta, StandingQuery
from ..stream.site import StreamSite
from ..stream.windows import Window
from .admission import AdmissionPolicy, AdmissionRejected, TenantLedger
from .session import QuerySession, QuerySpec
from .sites import SharedSiteHost, StandingReplicaBook
from .subscription import SubscriptionSession

__all__ = ["SkylineService"]


class SkylineService:
    """An admission-controlled, budget-metered multi-query server."""

    def __init__(
        self,
        partitions: Optional[Sequence[Sequence[UncertainTuple]]] = None,
        site_config: Optional[SiteConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
        tenant_budgets: Optional[Mapping[str, float]] = None,
        latency_model: Optional[LatencyModel] = None,
        remote_sites: Optional[Sequence[Tuple[int, Tuple[str, int]]]] = None,
        remote_timeout: float = 30.0,
        overlap_steps: bool = True,
        stream_windows: Optional[Sequence[Window]] = None,
        auto_publish: bool = True,
    ) -> None:
        if partitions is not None and remote_sites is not None:
            raise ValueError(
                "pass either partitions= (in-process cluster) or "
                "remote_sites= (dial site servers), not both"
            )
        if remote_sites is None and not partitions and stream_windows is None:
            raise ValueError(
                "a service needs at least one partition (or stream_windows= "
                "for a continuous-only service)"
            )
        if remote_sites is not None and not remote_sites:
            raise ValueError("remote_sites= needs at least one address")
        self.hosts = [
            SharedSiteHost(i, partition, site_config=site_config)
            for i, partition in enumerate(partitions or ())
        ]
        self.remote_sites = (
            None if remote_sites is None else list(remote_sites)
        )
        self.remote_timeout = remote_timeout
        self.overlap_steps = overlap_steps
        self.site_config = site_config
        self.policy = policy or AdmissionPolicy()
        self.ledger = TenantLedger(tenant_budgets)
        self.latency_model = latency_model
        self.replica_book = StandingReplicaBook(self.hosts) if self.hosts else None
        self.liveness_book = LivenessBook()
        #: The continuous-query plane: present iff stream_windows= was
        #: given.  Standing queries subscribe against it; epochs are
        #: published by the scheduler (auto_publish) or by hand.
        self.stream: Optional[ContinuousCoordinator] = None
        if stream_windows is not None:
            if not stream_windows:
                raise ValueError("stream_windows= needs at least one window")
            self.stream = ContinuousCoordinator(
                [
                    StreamSite(i, window, site_config=site_config)
                    for i, window in enumerate(stream_windows)
                ],
                latency_model=latency_model,
            )
        self.auto_publish = auto_publish
        self._subscriptions: List[SubscriptionSession] = []
        self._stream_dirty = False
        self._stream_billed = 0
        self._subscription_ids = 0
        self._pending: Deque[QuerySession] = deque()
        self._running: List[QuerySession] = []
        self._ids = 0
        self._passes = 0
        #: Wakes the scheduler when work arrives; wakes submitters when
        #: queue space frees up.
        self._work = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()
        self._stopping = False
        self._scheduler_task: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "SkylineService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def start(self) -> None:
        """Launch the scheduler task (idempotent)."""
        if self._scheduler_task is None:
            self._stopping = False
            loop = asyncio.get_running_loop()
            self._scheduler_task = loop.create_task(self._scheduler())

    async def close(self) -> None:
        """Finish in-flight work, then stop the scheduler.

        Active subscriptions are cancelled on the way out so their
        consumers' ``batches()`` iterators terminate.
        """
        if self._scheduler_task is None:
            return
        self._stopping = True
        self._work.set()
        task, self._scheduler_task = self._scheduler_task, None
        await task
        for subscription in list(self._subscriptions):
            self._cancel_subscription(subscription, "service closed")

    # ------------------------------------------------------------------
    # the client surface
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def inflight(self) -> int:
        return len(self._running)

    @property
    def passes(self) -> int:
        """Scheduling passes completed (LivenessBook epochs opened)."""
        return self._passes

    async def submit(self, spec: QuerySpec, wait: bool = True) -> QuerySession:
        """Enqueue one query; returns its session immediately.

        With a full queue, ``wait=True`` blocks until the scheduler
        frees a slot (closed-loop backpressure) and ``wait=False``
        raises :class:`AdmissionRejected` (open-loop shedding).  A
        tenant already over its bandwidth budget is rejected outright.
        In remote mode the session's site proxies are dialed here — a
        cluster that cannot be reached rejects at submission instead of
        failing mid-query.
        """
        if self._scheduler_task is None:
            raise RuntimeError("service not started; use 'async with' or start()")
        if not self.ledger.within_budget(spec.tenant):
            raise AdmissionRejected(
                f"tenant {spec.tenant!r} is over its bandwidth budget"
            )
        while len(self._pending) >= self.policy.max_queued:
            if not wait:
                raise AdmissionRejected(
                    f"queue full ({self.policy.max_queued} waiting)"
                )
            self._space.clear()
            await self._space.wait()
        session = await self._build_session(spec)
        self._pending.append(session)
        self._work.set()
        return session

    async def drain(self) -> None:
        """Wait until nothing is queued or running.

        The service keeps no finished session: each belongs to the
        caller, who already holds every one that :meth:`submit` returned.
        """
        while self._pending or self._running:
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # the continuous surface: standing queries over the stream plane
    # ------------------------------------------------------------------

    def _require_stream(self) -> ContinuousCoordinator:
        if self.stream is None:
            raise RuntimeError(
                "this service has no stream plane; pass stream_windows= "
                "to serve standing queries"
            )
        return self.stream

    async def subscribe(self, query: StandingQuery) -> SubscriptionSession:
        """Register one standing query; returns its live session.

        Unlike one-shot queries, subscriptions never finish on their
        own, so there is no queue behind
        :attr:`~repro.serve.admission.AdmissionPolicy.max_subscriptions`
        — over the cap (or over the tenant's budget) the call raises
        :class:`AdmissionRejected` outright.
        """
        stream = self._require_stream()
        if self._scheduler_task is None:
            raise RuntimeError("service not started; use 'async with' or start()")
        if not self.ledger.within_budget(query.tenant):
            raise AdmissionRejected(
                f"tenant {query.tenant!r} is over its bandwidth budget"
            )
        if len(self._subscriptions) >= self.policy.max_subscriptions:
            raise AdmissionRejected(
                f"subscription cap reached ({self.policy.max_subscriptions} active)"
            )
        query_id = stream.register(query)
        self._subscription_ids += 1
        session = SubscriptionSession(self._subscription_ids, query, query_id)
        self._subscriptions.append(session)
        return session

    def unsubscribe(self, session: SubscriptionSession) -> None:
        """Voluntarily close one subscription (idempotent)."""
        if session.active:
            self._cancel_subscription(session, None)

    def _cancel_subscription(
        self, session: SubscriptionSession, reason: Optional[str]
    ) -> None:
        if self.stream is not None:
            try:
                self.stream.unregister(session.query_id)
            except KeyError:
                pass
        self._subscriptions.remove(session)
        session._cancel(reason)

    def ingest(
        self, site_id: int, t: UncertainTuple, stamp: Optional[float] = None
    ) -> None:
        """Feed one stream arrival; the next publish folds it in."""
        self._require_stream().ingest(site_id, t, stamp)
        self._stream_dirty = True
        self._work.set()

    def advance_stream(self, now: float) -> None:
        """Advance the stream clock (time-based windows expire)."""
        self._require_stream().advance(now)
        self._stream_dirty = True
        self._work.set()

    async def publish(self) -> List[ResultDelta]:
        """Close one stream epoch: bill delta traffic, fan batches out.

        The epoch's transmitted tuples are split equally across the
        active subscriptions and charged to their tenants; a tenant
        pushed over budget has its subscriptions cancelled here, before
        delivery — the continuous analogue of aborting a one-shot
        session at its next step.
        """
        stream = self._require_stream()
        self._stream_dirty = False
        deltas = stream.close_epoch()
        traffic = stream.stats.tuples_transmitted - self._stream_billed
        self._stream_billed = stream.stats.tuples_transmitted
        active = list(self._subscriptions)  # a budget cancel below removes from the list
        if active and traffic:
            share = traffic / len(active)
            for session in active:
                session.billed_tuples += share
                if not self.ledger.charge(session.query.tenant, share):
                    self._cancel_subscription(
                        session,
                        f"tenant {session.query.tenant!r} bandwidth budget exhausted",
                    )
        by_query: dict = {}
        for delta in deltas:
            by_query.setdefault(delta.query_id, []).append(delta)
        for session in active:
            if not session.active:
                continue
            batch = by_query.get(session.query_id)
            if batch:
                session._deliver(batch)
        return deltas

    # ------------------------------------------------------------------
    # session assembly
    # ------------------------------------------------------------------

    async def _build_session(self, spec: QuerySpec) -> QuerySession:
        self._ids += 1
        if self.remote_sites is None:
            return QuerySession(self._ids, spec, self._build_coordinator(spec))
        coordinator, proxies = await self._build_remote_coordinator(spec)
        session = QuerySession(self._ids, spec, coordinator)
        session.owned_endpoints = list(proxies)
        return session

    def _build_coordinator(self, spec: QuerySpec) -> Coordinator:
        """Mirror :func:`~repro.distributed.query.distributed_skyline`,
        with per-session forks standing in for fresh sites."""
        sites: List[SiteEndpoint] = [
            host.view(spec.preference) for host in self.hosts
        ]
        if spec.fault_schedule is not None:
            # asyncio.sleep: an injected DELAY is awaited by the session's
            # pump instead of stalling every co-scheduled session.
            sites = [
                cast(SiteEndpoint, FaultyEndpoint(site, spec.fault_schedule, asyncio.sleep))
                for site in sites
            ]
        replica_manager = None
        if spec.replication_factor > 1:
            assert self.replica_book is not None
            replica_manager = self.replica_book.manager_for(
                sites, spec.replication_factor, preference=spec.preference
            )
        # A chaos session's failures are its own private fiction — its
        # verdicts must not leak into (or read from) the shared book.
        book = None if spec.fault_schedule is not None else self.liveness_book
        return self._make_coordinator(spec, sites, replica_manager, book)

    async def _build_remote_coordinator(
        self, spec: QuerySpec
    ) -> Tuple[Coordinator, Sequence[SiteEndpoint]]:
        """Dial this session's own proxies to the remote cluster.

        Remote sites are other processes: chaos wrappers, standing
        replicas, and client-side preferences all assume in-process
        sites (a site server bakes its preference at hosting time), so
        a spec asking for them is a configuration error, not a degraded
        mode.
        """
        assert self.remote_sites is not None
        if spec.fault_schedule is not None:
            raise ValueError(
                "fault_schedule= injects in-process chaos; remote sites "
                "fail for real — drop it for remote mode"
            )
        if spec.replication_factor > 1:
            raise ValueError(
                "standing replicas are in-process only; remote mode "
                "requires replication_factor=1"
            )
        if spec.preference is not None:
            raise ValueError(
                "remote site servers bake their preference at hosting "
                "time; per-spec preference= is in-process only"
            )
        proxies = await connect_async_sites(self.remote_sites, timeout=self.remote_timeout)
        # Async proxies satisfy the endpoint contract awaitably; the
        # coordinator's async driver awaits whatever they return.
        sites: List[SiteEndpoint] = list(proxies)  # type: ignore[arg-type]
        coordinator = self._make_coordinator(spec, sites, None, self.liveness_book)
        return coordinator, sites

    def _make_coordinator(
        self,
        spec: QuerySpec,
        sites: Sequence[SiteEndpoint],
        replica_manager: Optional[ReplicaManager],
        book: Optional[LivenessBook],
    ) -> Coordinator:
        if ALGORITHMS.get(spec.algorithm) not in PROGRESSIVE:
            raise ValueError(
                f"unknown algorithm {spec.algorithm!r}; the service runs "
                f"progressive queries only (dsud/edsud)"
            )
        return assemble_coordinator(
            sites,
            spec.threshold,
            algorithm=spec.algorithm,
            preference=spec.preference,
            latency_model=self.latency_model,
            edsud_config=spec.edsud_config,
            limit=spec.limit,
            retry_policy=spec.retry_policy,
            batch_size=spec.batch_size,
            replica_manager=replica_manager,
            liveness_book=book,
        )

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------

    async def _admit(self) -> None:
        while self._pending and len(self._running) < self.policy.max_inflight:
            session = self._pending.popleft()
            self._space.set()
            if not self.ledger.within_budget(session.spec.tenant):
                await session.abort(
                    f"tenant {session.spec.tenant!r} over budget before start"
                )
                await session.release_endpoints()
                continue
            session.start()
            self._running.append(session)

    async def _step_all(self) -> None:
        # One LivenessBook epoch per pass: every fault-free session
        # stepping below shares this pass's probe verdicts.
        self._passes += 1
        self.liveness_book.advance()
        stepping = list(self._running)
        if self.overlap_steps and len(stepping) > 1:
            # Steps overlap on the loop; gather returns verdicts in
            # submission order, so the billing sweep below is
            # deterministic no matter whose socket answered first.
            verdicts = list(
                await asyncio.gather(*(session.step() for session in stepping))
            )
        else:
            verdicts = [await session.step() for session in stepping]
        still_running: List[QuerySession] = []
        for session, done in zip(stepping, verdicts):
            delta = session.transmitted_tuples - session.billed_tuples
            session.billed_tuples = session.transmitted_tuples
            within = self.ledger.charge(session.spec.tenant, delta)
            if not within and not session.done:
                await session.abort(
                    f"tenant {session.spec.tenant!r} bandwidth budget exhausted"
                )
                done = True
            if done:
                await session.release_endpoints()
            else:
                still_running.append(session)
        self._running = still_running

    def _stream_publishable(self) -> bool:
        return (
            self.auto_publish
            and self._stream_dirty
            and bool(self._subscriptions)
        )

    async def _scheduler(self) -> None:
        while True:
            if (
                not self._pending
                and not self._running
                and not self._stream_publishable()
            ):
                if self._stopping:
                    return
                self._work.clear()
                # Woken by submit(), ingest(), or close(); never
                # busy-waits idle.
                await self._work.wait()
                continue
            await self._admit()
            await self._step_all()
            if self._stream_publishable():
                await self.publish()
            await asyncio.sleep(0)
