"""Asyncio transport: the TCP client's contract, overlap, and
sync-adapter fidelity."""

import asyncio
import contextlib
import socket
import socketserver
import threading
import time

import pytest

from repro.distributed.site import LocalSite
from repro.fault.errors import SiteTimeout
from repro.net import aio
from repro.net.aio import (
    AsyncLocalEndpoint,
    AsyncRemoteSiteProxy,
    connect_async_sites,
)
from repro.net.rpc import _LENGTH, HEADER_BYTES
from repro.net.sockets import SiteServer, _recv_frame

from ..conftest import make_random_database


def run(coro):
    return asyncio.run(coro)


#: Where a reply frame of ``n`` bytes is cut into separately sent pieces.
CUTS = {
    "byte by byte": lambda n: range(1, n),
    "split header": lambda n: [HEADER_BYTES // 2],
    "header and part of the body": lambda n: [HEADER_BYTES + 3],
}


@contextlib.contextmanager
def cutting_relay(upstream, cuts):
    """A relay to ``upstream`` that sends every reply in pieces.

    Each piece is its own segment, a few milliseconds after the last,
    so the proxy reads one frame over several receives.
    """

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with socket.create_connection(upstream, timeout=10.0) as site:
                while (request := _recv_frame(self.request)) is not None:
                    site.sendall(_LENGTH.pack(len(request)) + request)
                    body = _recv_frame(site)
                    reply = _LENGTH.pack(len(body)) + body
                    edges = [0, *cuts(len(reply)), len(reply)]
                    for start, end in zip(edges, edges[1:]):
                        self.request.sendall(reply[start:end])
                        time.sleep(0.002)

    relay = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    relay.daemon_threads = True
    threading.Thread(target=relay.serve_forever, args=(0.02,), daemon=True).start()
    try:
        yield relay.server_address
    finally:
        relay.shutdown()
        relay.server_close()


class TestAsyncRemoteProxy:
    """The TCP client's whole contract: its RPC surface against an
    in-process LocalSite, its faults and teardown, and what an
    event-loop transport adds — overlap, fan-out dials, awaited close."""

    def drive(self, address, scenario, site_id=0, **kwargs):
        """Run ``scenario(proxy)`` against a fresh proxy, then close it."""

        async def session():
            proxy = await AsyncRemoteSiteProxy.connect(site_id, address, **kwargs)
            try:
                return await scenario(proxy)
            finally:
                await proxy.close()

        return asyncio.run(session())

    # ------------------------------------------------------------------
    # the surface, against an in-process LocalSite over the same data

    def test_ping(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            assert await proxy.ping() is True

        self.drive(c.servers[0].address, scenario)

    def test_prepare_matches_local(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            assert await proxy.prepare(0.3) == LocalSite(0, db[0::3]).prepare(0.3)

        self.drive(c.servers[0].address, scenario)

    def test_pop_representative_roundtrip(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await proxy.prepare(0.3)
            q = await proxy.pop_representative()
            assert q is not None
            assert q.site == 0
            assert q.tuple.key in {t.key for t in db[0::3]}

        self.drive(c.servers[0].address, scenario)

    def test_exhaustion_returns_none(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            await proxy.prepare(0.99)
            while await proxy.pop_representative() is not None:
                pass
            assert await proxy.pop_representative() is None

        self.drive(c.servers[1].address, scenario, site_id=1)

    def test_probe_and_prune_matches_local(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await proxy.prepare(0.3)
            local = LocalSite(2, db[2::3])
            local.prepare(0.3)
            remote_reply = await proxy.probe_and_prune(db[0])
            local_reply = local.probe_and_prune(db[0])
            assert remote_reply.factor == pytest.approx(local_reply.factor)
            assert remote_reply.pruned == local_reply.pruned

        self.drive(c.servers[2].address, scenario, site_id=2)

    def test_batch_probe_matches_sequential(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await proxy.prepare(0.3)
            probes = db[0:6:2]
            reply = await proxy.probe_and_prune_batch(probes)
            assert len(reply.factors) == len(probes)
            local = LocalSite(1, db[1::3])
            local.prepare(0.3)
            expected = [local.probe_and_prune(t).factor for t in probes]
            assert reply.factors == pytest.approx(expected)

        self.drive(c.servers[1].address, scenario, site_id=1)

    def test_rpc_surface_matches_local(self, cluster):
        """One whole conversation, answer for answer."""
        c, db = cluster

        async def scenario(proxy):
            local = LocalSite(0, db[0::3])
            assert await proxy.prepare(0.3) == local.prepare(0.3)
            q = await proxy.pop_representative()
            local_q = local.pop_representative()
            assert q is not None and q.tuple.key == local_q.tuple.key
            assert q.local_probability == pytest.approx(local_q.local_probability)
            remote_reply = await proxy.probe_and_prune(db[1])
            local_reply = local.probe_and_prune(db[1])
            assert remote_reply.factor == pytest.approx(local_reply.factor)
            assert remote_reply.pruned == local_reply.pruned
            assert await proxy.queue_size() == local.queue_size()

        self.drive(c.servers[0].address, scenario)

    def test_ship_all(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            shipped = await proxy.ship_all()
            assert {t.key for t in shipped} == {t.key for t in db[0::3]}

        self.drive(c.servers[0].address, scenario)

    def test_ship_local_skyline_sorted(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            burst = await proxy.ship_local_skyline(0.3)
            probs = [q.local_probability for q in burst]
            assert probs and probs == sorted(probs, reverse=True)

        self.drive(c.servers[0].address, scenario)

    def test_only_table_methods_are_attributes(self, cluster):
        """A typo is an AttributeError at the call site, never an RPC."""
        c, _ = cluster

        async def scenario(proxy):
            with pytest.raises(AttributeError, match="frobnicate"):
                proxy.frobnicate
            with pytest.raises(TypeError):
                await proxy.prepare()
            assert await proxy.ping()

        self.drive(c.servers[0].address, scenario)

    @pytest.mark.parametrize("cuts", list(CUTS.values()), ids=list(CUTS))
    def test_a_reply_in_pieces_parses_the_same(self, cluster, cuts):
        c, db = cluster
        local = LocalSite(0, db[0::3])

        async def scenario(proxy):
            assert await proxy.ping() is True
            assert await proxy.prepare(0.3) == local.prepare(0.3)
            assert await proxy.queue_size() == local.queue_size()
            assert proxy.reconnects == 0

        with cutting_relay(c.servers[0].address, cuts) as address:
            self.drive(address, scenario)

    # ------------------------------------------------------------------
    # errors, timeouts, drops, teardown

    def test_unknown_method_raises(self, cluster):
        """The server, not the proxy, is the authority on what it serves."""
        c, _ = cluster

        async def scenario(proxy):
            with pytest.raises(RuntimeError, match="RPC failed.*unknown RPC method"):
                await proxy._call("frobnicate")

        self.drive(c.servers[0].address, scenario)

    def test_application_error_is_authoritative(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            with pytest.raises(RuntimeError, match="RPC failed.*threshold"):
                await proxy.prepare(1.5)
            # Not a transport fault: never retried, and the connection
            # survives it.
            assert proxy.reconnects == 0
            assert await proxy.ping()
            assert proxy.reconnects == 0

        self.drive(c.servers[0].address, scenario, retries=3)

    def test_timeout_escalates_to_site_timeout(self, cluster):
        """No answer within the deadline raises SiteTimeout at once — even
        with retries left — and the next call re-dials first."""
        c, _ = cluster
        site = c.servers[0].site
        prompt_prepare = site.prepare

        def slow_prepare(threshold):
            time.sleep(0.6)
            return prompt_prepare(threshold)

        async def scenario(proxy):
            started = time.perf_counter()
            with pytest.raises(SiteTimeout):
                await proxy.prepare(0.3)
            assert time.perf_counter() - started < 0.55  # not waited out twice
            assert proxy.timeouts == 1
            assert proxy._needs_redial
            assert proxy.reconnects == 0
            # A late reply may still arrive on the old stream, so the
            # next call goes out on a fresh connection.
            assert await proxy.ping()
            assert proxy.reconnects == 1
            assert not proxy._needs_redial

        site.prepare = slow_prepare
        try:
            self.drive(c.servers[0].address, scenario, timeout=0.2, retries=2)
        finally:
            site.prepare = prompt_prepare

    def late_reply(self, cluster, abandon):
        """``abandon`` a slow ``prepare``; then its reply lands on the old
        connection, and the next calls must each get their own answer —
        with no timer or callback of the abandoned call going off."""
        c, db = cluster
        site = c.servers[0].site
        prompt_prepare = site.prepare
        prepared = LocalSite(0, db[0::3]).prepare(0.3)

        def slow_prepare(threshold):
            time.sleep(0.3)
            return prompt_prepare(threshold)

        async def scenario(proxy):
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            await abandon(proxy)
            await asyncio.sleep(0.4)  # the late reply has arrived
            assert await proxy.ping() is True
            assert proxy.reconnects == 1
            # The abandoned prepare did run, on the shared site.
            assert await proxy.queue_size() == prepared
            assert errors == []

        site.prepare = slow_prepare
        try:
            self.drive(c.servers[0].address, scenario, timeout=0.15)
        finally:
            site.prepare = prompt_prepare

    def test_a_late_reply_after_a_timeout_answers_no_later_call(self, cluster):
        async def time_out(proxy):
            with pytest.raises(SiteTimeout):
                await proxy.prepare(0.3)

        self.late_reply(cluster, time_out)

    def test_a_cancelled_calls_late_reply_answers_no_later_call(self, cluster):
        async def cancel(proxy):
            call = asyncio.ensure_future(proxy.prepare(0.3))
            await asyncio.sleep(0.05)  # the request is on the wire
            call.cancel()
            with pytest.raises(asyncio.CancelledError):
                await call
            # The next call at once: the cancelled one's done-callback
            # has not run yet, and its deadline must not take this one.
            assert await proxy.ping() is True

        self.late_reply(cluster, cancel)

    def test_a_listener_that_never_accepts_times_out(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()

            async def scenario(proxy):
                with pytest.raises(SiteTimeout):
                    await proxy.queue_size()
                assert proxy.timeouts == 1

            self.drive(listener.getsockname(), scenario, timeout=0.2)

    def test_retry_reconnects_after_connection_drop(self, cluster):
        """With retries enabled, a severed connection self-heals for
        idempotent RPCs (the server still listens)."""
        c, _ = cluster

        async def scenario(proxy):
            assert await proxy.ping()
            proxy._wire.transport.close()  # transient fault
            assert await proxy.prepare(0.3) >= 1  # idempotent -> retried
            assert proxy.reconnects == 1

        self.drive(c.servers[0].address, scenario, retries=2)

    def test_pop_is_never_retried(self, cluster):
        """An ambiguous drop during pop must surface, not silently re-pop."""
        c, _ = cluster

        async def scenario(proxy):
            await proxy.prepare(0.3)
            proxy._wire.transport.close()
            with pytest.raises((ConnectionError, OSError)):
                await proxy.pop_representative()
            assert proxy.reconnects == 0

        self.drive(c.servers[0].address, scenario, retries=5)

    def test_a_call_on_a_connection_already_lost_fails_at_once(self, cluster):
        """No waiting out the deadline for a reply that cannot come."""
        c, _ = cluster

        async def scenario(proxy):
            assert await proxy.ping()
            proxy._wire.transport.close()
            await asyncio.sleep(0.05)  # the loss has been noticed
            started = time.perf_counter()
            with pytest.raises((ConnectionError, OSError)):
                await proxy.pop_representative()
            assert time.perf_counter() - started < 1.0

        self.drive(c.servers[0].address, scenario, timeout=5.0)

    def test_an_abandoned_exchange_forces_a_redial(self, cluster):
        """Whatever ends an exchange before its reply is read — here its
        script is simply never answered, as when its await is cancelled —
        leaves the stream position unknown: the next call re-dials."""
        c, _ = cluster

        async def scenario(proxy):
            assert await proxy.ping()
            script = proxy._call_script("prepare", (0.3,))
            assert next(script) is not None  # the request frame is out
            script.close()
            assert proxy._needs_redial
            assert await proxy.ping() is True
            assert proxy.reconnects == 1
            assert await proxy.queue_size() == 0
            assert not proxy._needs_redial

        self.drive(c.servers[0].address, scenario)

    def test_closed_proxy_never_silently_redials(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            assert await proxy.ping()
            await proxy.close()
            # A straggling RPC after teardown must fail loudly, not dial
            # a fresh connection past the owner that released it.
            with pytest.raises(ConnectionError, match="closed"):
                await proxy.ping()
            assert proxy.reconnects == 0

        self.drive(c.servers[0].address, scenario, retries=1)

    # ------------------------------------------------------------------
    # the event loop: cancels, fan-out dials, overlap

    def test_connect_failure_closes_partial_fanout(self, cluster):
        c, _ = cluster
        dead = ("127.0.0.1", 1)  # nothing listens on port 1

        async def scenario():
            with pytest.raises((ConnectionError, OSError, SiteTimeout)):
                await connect_async_sites(
                    c.addresses + [(99, dead)], timeout=2.0
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
                proxies = await connect_async_sites(c.addresses)
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
                    c.addresses + [(99, dead)], timeout=2.0
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
        server.serve_in_thread()

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
                proxies = await connect_async_sites(c.addresses)
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
