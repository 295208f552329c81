"""Asyncio transport: RPC semantics, overlap, and sync-adapter fidelity."""

import asyncio
import threading

import pytest

from repro.distributed.site import LocalSite
from repro.fault.errors import SiteTimeout
from repro.net import aio
from repro.net.aio import (
    AsyncLocalEndpoint,
    AsyncRemoteSiteProxy,
    connect_async_sites,
)
from repro.net.sockets import SiteServer

from ..conftest import make_random_database
from .proxy_contract import ASYNC, ProxyContract


def run(coro):
    return asyncio.run(coro)


def _addresses(c):
    return [(i, s.address) for i, s in enumerate(c.servers)]


class TestAsyncRemoteProxy(ProxyContract):
    """The asyncio proxy against the shared contract, plus what only an
    event-loop transport can do: overlap, fan-out dials, awaited close."""

    kit = ASYNC

    def test_connect_failure_closes_partial_fanout(self, cluster):
        c, _ = cluster
        dead = ("127.0.0.1", 1)  # nothing listens on port 1

        async def scenario():
            with pytest.raises((ConnectionError, OSError, SiteTimeout)):
                await connect_async_sites(
                    _addresses(c) + [(99, dead)], timeout=2.0
                )

        run(scenario())

    def test_close_waits_for_the_transport_and_is_idempotent(self, cluster):
        c, _ = cluster

        async def scenario():
            proxy = await AsyncRemoteSiteProxy.connect(0, c.servers[0].address)
            assert await proxy.ping()
            wire = proxy._wire
            await proxy.close()
            # connection_lost ran: the transport is really gone, not
            # merely scheduled to go — rapid churn cannot pile up
            # half-open sockets behind the loop.
            assert wire.transport.is_closing() and wire.lost.done()
            assert proxy._wire is None
            await proxy.close()  # idempotent

        run(scenario())

    def test_rapid_session_churn_leaks_no_connections(self, cluster):
        """Session churn: dial the fan-out, use it, drop it — 15 times.
        Every transport ever created must be closing by the end."""
        c, _ = cluster

        async def scenario():
            transports = []
            for _ in range(15):
                proxies = await connect_async_sites(_addresses(c))
                for p in proxies:
                    assert await p.ping()
                    transports.append(p._wire.transport)
                for p in proxies:
                    await p.close()
            return transports

        transports = run(scenario())
        assert len(transports) == 15 * 3
        assert all(t.is_closing() for t in transports)

    def test_partial_fanout_cleanup_survives_a_failing_close(self, cluster):
        """One endpoint refusing to close must not leak the rest."""
        c, _ = cluster
        dead = ("127.0.0.1", 1)
        closed = []
        original_close = AsyncRemoteSiteProxy.close

        async def chaotic_close(self):
            if self.site_id == 0:
                raise ConnectionError("stuck in teardown")
            closed.append(self.site_id)
            await original_close(self)

        async def scenario():
            with pytest.raises((ConnectionError, OSError, SiteTimeout)):
                await connect_async_sites(
                    _addresses(c) + [(99, dead)], timeout=2.0
                )

        AsyncRemoteSiteProxy.close = chaotic_close
        try:
            run(scenario())
        finally:
            AsyncRemoteSiteProxy.close = original_close
        # Site 0's close raised, yet 1 and 2 were still released.
        assert sorted(closed) == [1, 2]

    def test_a_cancelled_exchange_does_not_desynchronise_the_stream(self):
        """Cancel a call after its request went out: the reply it never
        read must not be taken for the next call's.  Overlapped waves
        make cancelled in-flight siblings routine."""
        db = make_random_database(60, 2, seed=1, grid=10)
        server = SiteServer(LocalSite(0, db), rpc_delay=0.05)
        threading.Thread(target=server.serve_forever, daemon=True).start()

        async def scenario():
            proxy = await AsyncRemoteSiteProxy.connect(0, server.address)
            try:
                task = asyncio.ensure_future(proxy.prepare(0.3))
                await asyncio.sleep(0.01)  # the request is on the wire
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert proxy._needs_redial
                assert await proxy.ping() is True
                assert isinstance(await proxy.queue_size(), int)
                assert proxy.reconnects == 1
            finally:
                await proxy.close()

        try:
            run(scenario())
        finally:
            server.shutdown()
            server.server_close()

    def test_a_cancelled_call_closes_its_script(self, cluster, monkeypatch):
        c, _ = cluster
        scripts = []
        call_script = AsyncRemoteSiteProxy._call_script

        def recorded(proxy, method, args):
            scripts.append(call_script(proxy, method, args))
            return scripts[-1]

        monkeypatch.setattr(AsyncRemoteSiteProxy, "_call_script", recorded)

        async def scenario():
            proxy = await AsyncRemoteSiteProxy.connect(0, c.servers[0].address)
            try:
                call = proxy.prepare(0.3)  # the request is on the wire
                assert scripts[0].gi_frame is not None
                call.cancel()
                await asyncio.sleep(0)  # its done-callback has run
                assert scripts[0].gi_frame is None
            finally:
                await proxy.close()

        run(scenario())

    def test_a_call_cancelled_while_dialing_closes_its_connection(
        self, cluster, monkeypatch
    ):
        """Its dial still lands, but hands the proxy nothing: the next
        call's connection is the only one left open."""
        c, _ = cluster
        wires = []

        class Recorded(aio._Wire):
            def __init__(self, proxy):
                super().__init__(proxy)
                wires.append(self)

        monkeypatch.setattr(aio, "_Wire", Recorded)

        async def scenario():
            proxy = AsyncRemoteSiteProxy(0, c.servers[0].address)  # not dialed
            try:
                proxy.ping().cancel()
                assert await proxy.ping() is True
                await asyncio.sleep(0.05)  # the cancelled call's dial has landed
                assert len(wires) == 2 and proxy._wire in wires
                assert [w.lost.done() for w in wires if w is not proxy._wire] == [True]
            finally:
                await proxy.close()

        run(scenario())

    def test_rpcs_to_distinct_sites_overlap(self, cluster):
        """The whole point of the async transport: concurrent in-flight
        RPCs to different sites overlap on one thread.  Server-side
        call windows must intersect — a wall-clock-free assertion."""
        c, _ = cluster
        import time

        windows = {}
        originals = {}
        for i, server in enumerate(c.servers):
            site = server.site
            originals[i] = site.prepare

            def slow_prepare(q, _site_index=i, _inner=site.prepare):
                start = time.perf_counter()
                time.sleep(0.15)
                out = _inner(q)
                windows[_site_index] = (start, time.perf_counter())
                return out

            site.prepare = slow_prepare
        try:

            async def scenario():
                proxies = await connect_async_sites(_addresses(c))
                try:
                    await asyncio.gather(*(p.prepare(0.3) for p in proxies))
                finally:
                    for p in proxies:
                        await p.close()

            run(scenario())
        finally:
            for i, server in enumerate(c.servers):
                server.site.prepare = originals[i]
        assert len(windows) == 3
        starts = [w[0] for w in windows.values()]
        ends = [w[1] for w in windows.values()]
        # Every call began before the earliest call finished.
        assert max(starts) < min(ends)


class TestAsyncLocalEndpoint:
    def test_adapter_is_transparent(self):
        db = make_random_database(120, 2, seed=4, grid=10)
        sync_site = LocalSite(0, db)
        adapted = AsyncLocalEndpoint(LocalSite(0, db))

        async def drive():
            out = []
            assert await adapted.prepare(0.3) == sync_site.prepare(0.3)
            while True:
                q = await adapted.pop_representative()
                if q is None:
                    break
                out.append(q.tuple.key)
            return out

        async_keys = run(drive())
        sync_keys = []
        while True:
            q = sync_site.pop_representative()
            if q is None:
                break
            sync_keys.append(q.tuple.key)
        assert async_keys == sync_keys

    def test_adapter_yields_to_event_loop(self):
        db = make_random_database(40, 2, seed=5)
        adapted = AsyncLocalEndpoint(LocalSite(0, db))
        ticks = []

        async def ticker():
            for i in range(3):
                ticks.append(i)
                await asyncio.sleep(0)

        async def scenario():
            task = asyncio.ensure_future(ticker())
            await adapted.prepare(0.3)
            await adapted.queue_size()
            await adapted.queue_size()
            await task

        run(scenario())
        assert ticks == [0, 1, 2]

    def test_getattr_passthrough(self):
        db = make_random_database(30, 2, seed=6)
        inner = LocalSite(7, db)
        adapted = AsyncLocalEndpoint(inner)
        assert adapted.site_id == 7
        assert adapted.ship_all() == inner.ship_all()
