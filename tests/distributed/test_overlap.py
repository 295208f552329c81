"""The awaiting pump overlaps a request's lanes — really, and only there.

``Coordinator.asteps`` keeps every lane of a fan-out whose endpoint
answers with an awaitable in flight at once; a lane over a sync
endpoint runs inline.  Pinned here:

* the overlap is real: at m = 4, k = 1 a DSUD round has four calls in
  flight (three probes and the origin's riding pop), never two on one
  endpoint;
* it is confined: sync endpoints under ``asteps()`` create no task and
  yield exactly as ``steps()`` does;
* it is invisible: traces, per-site call sequences and a mid-wave
  casualty's ``CoverageReport`` equal the in-process run's;
* it is tidy: a cancelled wave cancels its calls in flight, an error in
  one lane waits for its siblings, and no coroutine is ever dropped
  unawaited;
* it is cheap: over socket proxies a query creates no task after its
  dials — a call is a future, and a wave awaits its lanes as they are.
"""

from __future__ import annotations

import asyncio
import gc
import warnings
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.site import LocalSite
from repro.fault.injection import FaultyEndpoint
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.net.aio import connect_async_sites
from repro.net.sockets import (
    SiteCluster,
    SiteServer,
    _SiteRequestHandler,
    host_sites_in_processes,
)
from repro.net.trace import ProtocolTracer, summarize_trace
from repro.net.transport import EndpointInterceptor

from ..conftest import make_random_database, query_over_tcp

SITES = 4
Q = 0.3
DB = make_random_database(200, 3, seed=23)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]


def local_sites() -> List[LocalSite]:
    return [LocalSite(i, part) for i, part in enumerate(PARTITIONS)]


def fingerprint(result) -> Dict[str, object]:
    return {
        "answer": [(m.key, m.probability) for m in result.answer],
        "emissions": [
            (e.key, e.global_probability, e.tuples_transmitted)
            for e in result.progress.events
        ],
        "by_kind": dict(result.stats.by_kind),
        "messages": result.stats.messages,
        "tuples": result.stats.tuples_transmitted,
        "rounds": result.stats.rounds,
        "simulated_time": result.stats.simulated_time,
        "iterations": result.iterations,
        "failures": result.stats.rpc_failures,
    }


async def adrive(coordinator):
    yields = 0
    async for _ in coordinator.asteps():
        yields += 1
    return await coordinator.afinish(), yields


def never_awaited(caught) -> List[str]:
    gc.collect()
    return [str(w.message) for w in caught if "never awaited" in str(w.message)]


class Board:
    """What the gated endpoints of one cluster have in flight."""

    def __init__(self) -> None:
        self.in_flight: List[Tuple[int, str]] = []
        self.peaks: List[Tuple[Tuple[int, str], ...]] = []
        self.finished: List[Tuple[int, str]] = []
        self.cancelled: List[Tuple[int, str]] = []
        self.hold: Optional[asyncio.Event] = None
        self.on_enter: Optional[Callable[[], None]] = None


class GatedSite:
    """An awaitable endpoint over a LocalSite that reports to a Board.

    Every call yields to the loop once before it runs — a barrier: all
    the calls a wave has in flight have entered before the first of
    them is served — and then waits on ``board.hold`` if one is set.
    """

    def __init__(self, inner: LocalSite, board: Board) -> None:
        self.inner = inner
        self.board = board
        self.site_id = inner.site_id

    def __getattr__(self, name: str) -> Any:
        target = getattr(self.inner, name)
        if not callable(target):
            return target
        board, call = self.board, (self.site_id, name)

        async def gated(*args: Any) -> Any:
            if board.on_enter is not None:
                board.on_enter()
            board.in_flight.append(call)
            try:
                await asyncio.sleep(0)
                board.peaks.append(tuple(board.in_flight))
                if board.hold is not None:
                    await board.hold.wait()
                result = target(*args)
                board.finished.append(call)
                return result
            except asyncio.CancelledError:
                board.cancelled.append(call)
                raise
            finally:
                board.in_flight.remove(call)

        return gated


def gated_sites(board: Board) -> List[GatedSite]:
    return [GatedSite(site, board) for site in local_sites()]


# ----------------------------------------------------------------------
# (i) the overlap is real


class TestWavesOverlap:
    def test_a_k1_round_is_three_probes_and_the_origins_pop_at_once(self):
        board = Board()
        result, _ = asyncio.run(adrive(DSUD(gated_sites(board), Q)))
        assert fingerprint(result) == fingerprint(DSUD(local_sites(), Q).run())
        widest = max(board.peaks, key=len)
        assert len(widest) == SITES
        for peak in board.peaks:
            # Never two calls on one endpoint: a lane is sequential.
            assert len({site for site, _ in peak}) == len(peak)
        shapes = {tuple(sorted(Counter(m for _, m in p).items())) for p in board.peaks}
        assert (("pop_representative", 1), ("probe_and_prune", 3)) in shapes
        assert (("prepare", SITES),) in shapes  # the prepares fan out
        assert (("pop_representative", SITES),) in shapes  # so does the fill

    @pytest.mark.parametrize("algorithm", [DSUD, EDSUD])
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_overlapped_runs_keep_the_sequential_books(self, algorithm, batch_size):
        board = Board()
        result, yields = asyncio.run(
            adrive(algorithm(gated_sites(board), Q, batch_size=batch_size))
        )
        coordinator = algorithm(local_sites(), Q, batch_size=batch_size)
        assert yields == sum(1 for _ in coordinator.steps())
        assert fingerprint(result) == fingerprint(coordinator.finish())
        if batch_size == 4:
            # An origin's pop follows its probe share in the same lane.
            assert max(len(p) for p in board.peaks) == SITES

    def test_a_coordinator_may_mix_sync_and_awaitable_endpoints(self):
        board = Board()
        sites = local_sites()
        mixed = [sites[0], GatedSite(sites[1], board), sites[2], GatedSite(sites[3], board)]
        result, _ = asyncio.run(adrive(EDSUD(mixed, Q)))
        assert fingerprint(result) == fingerprint(EDSUD(local_sites(), Q).run())
        assert max(len(p) for p in board.peaks) == 2


# ----------------------------------------------------------------------
# (ii) and confined: sync endpoints take the inline path


class TaskCensus(EndpointInterceptor):
    """Samples how many asyncio tasks exist while a call is served."""

    def __init__(self, inner, census: List[int]) -> None:
        super().__init__(inner)
        self.census = census

    def after(self, method, args, result) -> None:
        self.census.append(len(asyncio.all_tasks()))


class TestSyncEndpointsStayInline:
    @pytest.mark.parametrize("algorithm", [DSUD, EDSUD])
    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("chaos", [False, True])
    def test_no_task_is_created_and_yields_match_steps(
        self, algorithm, batch_size, chaos
    ):
        def build(census=None):
            sites = local_sites()
            if census is not None:
                sites = [TaskCensus(site, census) for site in sites]
            kwargs = {"batch_size": batch_size}
            if chaos:
                # Site 1 refuses calls 4..9 and answers again: retries
                # park their lane on a backoff sleep — awaited in place.
                schedule = FaultSchedule(seed=0).crash(1, at_call=4, until_call=10)
                sites = [FaultyEndpoint(site, schedule) for site in sites]
                kwargs["retry_policy"] = RetryPolicy(
                    max_attempts=2, base_backoff=1e-4, max_backoff=1e-3
                )
            return algorithm(sites, Q, **kwargs)

        async def scenario():
            census: List[int] = []
            coordinator = build(census)
            yields = 0
            async for _ in coordinator.asteps():
                yields += 1
                census.append(len(asyncio.all_tasks()))
            return await coordinator.afinish(), yields, census

        result, yields, census = asyncio.run(scenario())
        assert census and set(census) == {1}  # the driver itself, ever
        sync = build()
        assert yields == sum(1 for _ in sync.steps())
        assert fingerprint(result) == fingerprint(sync.finish())
        if chaos:
            assert result.stats.rpc_retries > 0


# ----------------------------------------------------------------------
# (iii) and (iv) invisible over real sockets


class Died(BaseException):
    """Not an ``Exception``: it escapes the handler's error reply."""


class Mortal:
    """A site that dies for good at its ``at``-th call, raising ``death``.

    Hosted, ``death`` is :class:`Died`: from then on every connection
    that carries a call drops without a reply — redials and liveness
    probes included.  In process, it is the :class:`ConnectionError` the
    TCP client raises for that drop.
    """

    def __init__(
        self, inner: LocalSite, at: int, death: Callable[[], BaseException] = Died
    ) -> None:
        self.inner = inner
        self.at = at
        self.death = death
        self.calls = 0

    def __getattr__(self, name: str) -> Any:
        target = getattr(self.inner, name)
        if not callable(target):
            return target

        def call(*args: Any) -> Any:
            self.calls += 1
            if self.calls >= self.at:
                raise self.death()
            return target(*args)

        return call


class MortalHandler(_SiteRequestHandler):
    def handle(self) -> None:
        try:
            super().handle()
        except Died:
            pass  # socketserver closes the connection behind us


def hosted(victim: Optional[int] = None, at: int = 0) -> SiteCluster:
    """Thread-hosted site servers over PARTITIONS; optional casualty."""
    servers = []
    for site in local_sites():
        server = SiteServer(Mortal(site, at) if site.site_id == victim else site)
        server.RequestHandlerClass = MortalHandler
        server.serve_in_thread()
        servers.append(server)
    return SiteCluster(servers)


class TestOverSockets:
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_a_trace_of_overlapped_proxies_equals_the_in_process_run(self, batch_size):
        def traced(tracer):
            return lambda endpoints: EDSUD(tracer.wrap(endpoints), Q, batch_size=batch_size)

        solo_tracer, async_tracer = ProtocolTracer(), ProtocolTracer()
        solo_result = traced(solo_tracer)(local_sites()).run()
        with hosted() as cluster:
            async_result = query_over_tcp(
                cluster.addresses, traced(async_tracer), timeout=5.0
            )
        assert fingerprint(async_result) == fingerprint(solo_result)
        solo_summary = summarize_trace(solo_tracer.records)
        async_summary = summarize_trace(async_tracer.records)
        solo_summary.pop("duration"), async_summary.pop("duration")
        assert async_summary == solo_summary
        assert async_summary["calls"] == async_result.stats.rpc_calls

        def by_site(tracer):
            return {
                site_id: [
                    (r.method, r.detail) for r in tracer.records if r.site_id == site_id
                ]
                for site_id in range(SITES)
            }

        assert by_site(async_tracer) == by_site(solo_tracer)

    @pytest.mark.parametrize("at", [9, 14])
    def test_a_site_killed_mid_wave_degrades_like_the_in_process_run(self, at):
        victim = 2
        sites: List[Any] = local_sites()
        sites[victim] = Mortal(
            sites[victim], at, lambda: ConnectionError(f"site {victim} closed the connection")
        )
        solo_result = EDSUD(sites, Q).run()
        with hosted(victim=victim, at=at) as cluster:
            async_result = query_over_tcp(
                cluster.addresses, lambda proxies: EDSUD(proxies, Q), timeout=5.0
            )
        assert not solo_result.coverage.complete
        assert solo_result.coverage.down_sites == (victim,)
        assert solo_result.coverage.degraded
        assert async_result.coverage == solo_result.coverage
        assert fingerprint(async_result) == fingerprint(solo_result)


# ----------------------------------------------------------------------
# (v) and cheap over sockets


class TestNoTaskPerRpc:
    @pytest.fixture(scope="class")
    def addresses(self):
        with host_sites_in_processes(PARTITIONS) as cluster:
            yield cluster.addresses

    @pytest.mark.parametrize("algorithm", [DSUD, EDSUD])
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_a_remote_query_creates_no_task_after_its_dials(
        self, addresses, algorithm, batch_size
    ):
        created: List[Any] = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def scenario():
            proxies = await connect_async_sites(addresses, timeout=5.0)
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counting_factory)
            census = []
            try:
                coordinator = algorithm(proxies, Q, batch_size=batch_size)
                async for _ in coordinator.asteps():
                    census.append(asyncio.all_tasks())
                result = await coordinator.afinish()
            finally:
                loop.set_task_factory(None)
                for proxy in proxies:
                    await proxy.close()
            return result, census, asyncio.current_task()

        result, census, main_task = asyncio.run(scenario())
        assert created == []
        assert census and all(tasks == {main_task} for tasks in census)
        solo = algorithm(local_sites(), Q, batch_size=batch_size).run()
        assert fingerprint(result) == fingerprint(solo)


# ----------------------------------------------------------------------
# wave hygiene


class TestWaveHygiene:
    def test_a_cancelled_wave_cancels_its_calls_and_keeps_the_books(self):
        async def scenario():
            board = Board()
            sites = gated_sites(board)
            coordinator = DSUD(sites, Q)
            agen = coordinator.asteps()
            await agen.__anext__()  # prepared, filled, one round done
            board.hold = asyncio.Event()
            books: List[Dict[str, int]] = []
            board.on_enter = lambda: books.append(dict(coordinator.stats.by_kind))
            task = asyncio.ensure_future(agen.__anext__())
            while len(board.in_flight) < SITES:
                await asyncio.sleep(0)
            wave = sorted(board.in_flight)
            done_before = len(board.finished)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(0)
            # Every call of the wave was unwound, none was served.
            assert sorted(board.cancelled) == wave
            assert board.in_flight == [] and len(board.finished) == done_before
            # The books stand where the wave's request was issued.
            assert dict(coordinator.stats.by_kind) == books[0]
            # The generator is finished, lanes and script closed.
            with pytest.raises(StopAsyncIteration):
                await agen.__anext__()
            board.hold = None
            for site in sites:
                assert isinstance(await site.queue_size(), int)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(scenario())
        assert never_awaited(caught) == []

    def test_a_wave_cancelled_before_its_calls_start_drops_no_coroutine(self):
        """The cancel lands in the same loop pass that created the
        wave's tasks — before any of them ran a step."""

        async def scenario():
            coordinator = DSUD(gated_sites(Board()), Q)
            agen = coordinator.asteps()
            await agen.__anext__()
            task = asyncio.ensure_future(agen.__anext__())
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(0)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(scenario())
        assert never_awaited(caught) == []

    @pytest.mark.parametrize("awaitable_culprit", [True, False])
    def test_an_error_in_one_lane_waits_for_its_siblings(self, awaitable_culprit):
        """Anything but a transport fault ends the query — once the
        calls already in flight beside it have settled."""

        async def scenario():
            board = Board()
            sites: List[Any] = gated_sites(board)
            culprit = sites[1].inner
            if not awaitable_culprit:
                sites[1] = culprit  # a sync endpoint among awaitable ones

            def broken(t):
                raise RuntimeError("site logic failed")

            coordinator = DSUD(sites, Q)
            agen = coordinator.asteps()
            await agen.__anext__()
            culprit.probe_and_prune = broken
            finished = len(board.finished)
            with pytest.raises(RuntimeError, match="site logic failed"):
                async for _ in agen:
                    finished = len(board.finished)
            # The failing wave's other calls were served, not cancelled.
            assert board.cancelled == [] and board.in_flight == []
            assert len(board.finished) > finished

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(scenario())
        assert never_awaited(caught) == []
