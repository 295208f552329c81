"""The endpoint contract and the recording decorator."""

import asyncio
import inspect
import types

import pytest

from repro.distributed.site import LocalSite
from repro.fault.injection import FaultyEndpoint
from repro.fault.schedule import FaultSchedule
from repro.net.aio import AsyncLocalEndpoint, AsyncRemoteSiteProxy
from repro.net.trace import ProtocolTracer
from repro.net.transport import (
    PLAIN_REPLIES,
    SURFACE,
    RecordingEndpoint,
    SiteEndpoint,
    is_awaitable,
)

from ..conftest import make_random_database


async def settle(value):
    """Await what an async endpoint hands back; pass a sync reply through."""
    return await value if inspect.isawaitable(value) else value


def make_endpoint(seed=1):
    db = make_random_database(60, 2, seed=seed, grid=8)
    return RecordingEndpoint(LocalSite(0, db)), db


class TestProtocolConformance:
    def test_local_site_satisfies_endpoint_protocol(self):
        site = LocalSite(0, make_random_database(10, 2, seed=1))
        assert isinstance(site, SiteEndpoint)

    def test_recording_endpoint_satisfies_protocol(self):
        endpoint, _ = make_endpoint()
        assert isinstance(endpoint, SiteEndpoint)


class TestRecordingEndpoint:
    def test_calls_forwarded_and_logged(self):
        endpoint, _ = make_endpoint()
        size = endpoint.prepare(0.3)
        q = endpoint.pop_representative()
        assert size >= 1 and q is not None
        methods = [c.method for c in endpoint.log]
        assert methods == ["prepare", "pop_representative"]
        assert endpoint.log[0].result == size
        assert endpoint.log[1].result == q

    def test_probe_and_prune_logged_with_args(self):
        endpoint, db = make_endpoint()
        endpoint.prepare(0.3)
        foreign = db[0]
        reply = endpoint.probe_and_prune(foreign)
        record = endpoint.log[-1]
        assert record.method == "probe_and_prune"
        assert record.args == (foreign,)
        assert record.result is reply

    def test_shared_log_across_endpoints(self):
        log = []
        db = make_random_database(40, 2, seed=2)
        a = RecordingEndpoint(LocalSite(0, db[:20]), log=log)
        b = RecordingEndpoint(LocalSite(1, db[20:]), log=log)
        a.prepare(0.5)
        b.prepare(0.5)
        assert [c.site_id for c in log] == [0, 1]

    def test_passthrough_of_extra_methods(self):
        endpoint, db = make_endpoint()
        # ship_all is not part of the recorded surface but must still work
        assert len(endpoint.ship_all()) == len(db)

    def test_passthrough_of_plain_attributes(self):
        endpoint, _ = make_endpoint()
        endpoint.prepare(0.3)
        # __getattr__ must expose inner state, not just methods
        assert endpoint.pruned_total == endpoint.inner.pruned_total
        assert endpoint.config is endpoint.inner.config

    def test_passthrough_calls_are_not_logged(self):
        endpoint, _ = make_endpoint()
        endpoint.prepare(0.3)
        before = len(endpoint.log)
        endpoint.ship_all()
        _ = endpoint.pruned_total
        assert len(endpoint.log) == before

    def test_missing_attribute_still_raises(self):
        endpoint, _ = make_endpoint()
        with pytest.raises(AttributeError):
            endpoint.no_such_method()

    def test_queue_size_recorded(self):
        endpoint, _ = make_endpoint()
        endpoint.prepare(0.3)
        n = endpoint.queue_size()
        assert endpoint.log[-1].method == "queue_size"
        assert endpoint.log[-1].result == n


WRAPPERS = {
    "recording": RecordingEndpoint,
    "traced": lambda inner: ProtocolTracer().wrap([inner])[0],
    "faulty": lambda inner: FaultyEndpoint(inner, FaultSchedule(seed=1)),
    "async-local": AsyncLocalEndpoint,
}


class TestEndpointInterceptor:
    """One base, four wrappers: each must be transparent over a direct
    inner and over an awaitable one, and must see replies, not coroutines."""

    @staticmethod
    async def _conversation(endpoint):
        foreign = make_random_database(3, 2, seed=9, start_key=500)
        out = [await settle(endpoint.prepare(0.3))]
        q = await settle(endpoint.pop_representative())
        out.append(None if q is None else q.key)
        out.append((await settle(endpoint.probe_and_prune(foreign[0]))).factor)
        out.append((await settle(endpoint.probe_and_prune_batch(foreign[1:]))).factors)
        out.append(await settle(endpoint.queue_size()))
        return out

    @pytest.mark.parametrize("inner_kind", ["sync", "async"])
    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_wrappers_are_transparent_over_sync_and_async_inners(
        self, wrapper, inner_kind
    ):
        db = make_random_database(60, 2, seed=3, grid=8)
        expected = asyncio.run(self._conversation(LocalSite(0, db)))
        inner = LocalSite(0, db)
        if inner_kind == "async":
            inner = AsyncLocalEndpoint(inner)
        endpoint = WRAPPERS[wrapper](inner)
        assert isinstance(endpoint, SiteEndpoint)
        assert asyncio.run(self._conversation(endpoint)) == expected

    def test_a_sync_stack_never_hands_back_an_awaitable(self):
        endpoint, _ = make_endpoint()
        assert not inspect.isawaitable(endpoint.prepare(0.3))
        assert not inspect.isawaitable(endpoint.queue_size())

    def test_recording_an_async_proxy_journals_the_awaited_reply(self, cluster):
        """At cd4b865 the journal held the coroutine object itself."""
        c, db = cluster

        async def scenario():
            proxy = await AsyncRemoteSiteProxy.connect(0, c.servers[0].address)
            endpoint = RecordingEndpoint(proxy)
            try:
                size = await endpoint.prepare(0.3)
                reply = await endpoint.probe_and_prune(db[1])
            finally:
                await proxy.close()
            return endpoint.log, size, reply

        log, size, reply = asyncio.run(scenario())
        assert [r.method for r in log] == ["prepare", "probe_and_prune"]
        assert log[0].result == size and isinstance(size, int)
        assert log[1].result is reply
        assert log[1].args == (db[1],)

    def test_an_awaitable_before_hook_is_awaited_ahead_of_the_call(self):
        naps = []

        async def nap(delay):
            naps.append(delay)

        site = LocalSite(0, make_random_database(20, 2, seed=4))
        schedule = FaultSchedule(seed=1).slow(0, delay=0.25)
        endpoint = FaultyEndpoint(site, schedule, sleep=nap)
        pending = endpoint.prepare(0.3)
        assert site.threshold is None and naps == []  # nothing ran yet
        assert asyncio.run(pending) == site.queue_size()
        assert naps == [0.25] and site.threshold == 0.3

    @pytest.mark.parametrize("missing", SURFACE)
    def test_an_inner_without_a_surface_method_is_refused(self, missing):
        """Every SURFACE method is required: a wrapper never hides a hole
        in its inner until the coordinator routes a call into it."""
        site = LocalSite(0, make_random_database(20, 2, seed=2))

        class Partial:
            site_id = 0

        for name in SURFACE:
            if name != missing:
                setattr(Partial, name, staticmethod(getattr(site, name)))
        with pytest.raises(AttributeError, match=missing):
            RecordingEndpoint(Partial())


def test_is_awaitable_agrees_with_inspect_on_every_reply_shape():
    """The remembered plain types never change a verdict: each reply an
    endpoint hands back is judged as ``inspect.isawaitable`` judges it,
    on its first sighting and after."""
    site = LocalSite(0, make_random_database(20, 2, seed=2))
    site.prepare(0.3)
    foreign = make_random_database(2, 2, seed=9, start_key=500)

    async def answer():
        return 1

    @types.coroutine
    def legacy():
        yield

    def plain_generator():
        yield

    async def replies():
        loop = asyncio.get_running_loop()
        return [
            None, 3, 0.5, [1], site.probe_and_prune(foreign[0]),
            site.probe_and_prune_batch(foreign), site.pop_representative(),
            answer(), loop.create_future(), legacy(), plain_generator(),
        ]

    async def judge():
        values = await replies()
        try:
            return [(is_awaitable(v), is_awaitable(v), inspect.isawaitable(v)) for v in values]
        finally:
            for v in values:
                if inspect.iscoroutine(v) or inspect.isgenerator(v):
                    v.close()

    verdicts = asyncio.run(judge())
    assert all(first == again == expected for first, again, expected in verdicts)
    assert [expected for *_, expected in verdicts] == [False] * 7 + [True, True, True, False]
    assert not {asyncio.Future, types.GeneratorType, types.CoroutineType} & PLAIN_REPLIES
