"""The behaviour both TCP proxies owe their callers, written once.

:class:`ProxyContract` is instantiated for the blocking proxy in
``test_sockets.py`` (``kit = SYNC``) and for the asyncio proxy in
``test_aio.py`` (``kit = ASYNC``), so every case below runs against
both pumps of the one call script in :mod:`repro.net.rpc`.  A scenario
is a coroutine either way: :func:`settle` awaits what the async proxy
hands back and passes through what the sync one already computed.
"""

import asyncio
import contextlib
import inspect
import socket
import socketserver
import threading
import time
from typing import Any, Awaitable, Callable, NamedTuple

import pytest

from repro.distributed.site import LocalSite
from repro.fault.errors import SiteTimeout
from repro.net.aio import AsyncRemoteSiteProxy
from repro.net.rpc import _LENGTH, HEADER_BYTES
from repro.net.sockets import RemoteSiteProxy, _recv_frame


class Kit(NamedTuple):
    """One proxy flavour: how to dial it and how to cut its connection."""

    name: str
    connect: Callable[..., Awaitable[Any]]
    sever: Callable[[Any], None]


async def _connect_sync(site_id, address, **kwargs):
    return RemoteSiteProxy(site_id, address, **kwargs)


SYNC = Kit("sync", _connect_sync, lambda proxy: proxy._sock.close())
ASYNC = Kit("async", AsyncRemoteSiteProxy.connect, lambda proxy: proxy._wire.transport.close())


async def settle(value):
    return await value if inspect.isawaitable(value) else value


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
    threading.Thread(target=relay.serve_forever, daemon=True).start()
    try:
        yield relay.server_address
    finally:
        relay.shutdown()
        relay.server_close()


class ProxyContract:
    kit: Kit

    def drive(self, address, scenario, site_id=0, **kwargs):
        """Run ``scenario(proxy)`` against a fresh proxy, then close it."""

        async def session():
            proxy = await self.kit.connect(site_id, address, **kwargs)
            try:
                return await scenario(proxy)
            finally:
                await settle(proxy.close())

        return asyncio.run(session())

    # ------------------------------------------------------------------
    # the surface, against an in-process LocalSite over the same data

    def test_ping(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            assert await settle(proxy.ping()) is True

        self.drive(c.servers[0].address, scenario)

    def test_prepare_matches_local(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            assert await settle(proxy.prepare(0.3)) == LocalSite(0, db[0::3]).prepare(0.3)

        self.drive(c.servers[0].address, scenario)

    def test_pop_representative_roundtrip(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await settle(proxy.prepare(0.3))
            q = await settle(proxy.pop_representative())
            assert q is not None
            assert q.site == 0
            assert q.tuple.key in {t.key for t in db[0::3]}

        self.drive(c.servers[0].address, scenario)

    def test_exhaustion_returns_none(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            await settle(proxy.prepare(0.99))
            while await settle(proxy.pop_representative()) is not None:
                pass
            assert await settle(proxy.pop_representative()) is None

        self.drive(c.servers[1].address, scenario, site_id=1)

    def test_probe_and_prune_matches_local(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await settle(proxy.prepare(0.3))
            local = LocalSite(2, db[2::3])
            local.prepare(0.3)
            remote_reply = await settle(proxy.probe_and_prune(db[0]))
            local_reply = local.probe_and_prune(db[0])
            assert remote_reply.factor == pytest.approx(local_reply.factor)
            assert remote_reply.pruned == local_reply.pruned

        self.drive(c.servers[2].address, scenario, site_id=2)

    def test_batch_probe_matches_sequential(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            await settle(proxy.prepare(0.3))
            probes = db[0:6:2]
            reply = await settle(proxy.probe_and_prune_batch(probes))
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
            assert await settle(proxy.prepare(0.3)) == local.prepare(0.3)
            q = await settle(proxy.pop_representative())
            local_q = local.pop_representative()
            assert q is not None and q.tuple.key == local_q.tuple.key
            assert q.local_probability == pytest.approx(local_q.local_probability)
            remote_reply = await settle(proxy.probe_and_prune(db[1]))
            local_reply = local.probe_and_prune(db[1])
            assert remote_reply.factor == pytest.approx(local_reply.factor)
            assert remote_reply.pruned == local_reply.pruned
            assert await settle(proxy.queue_size()) == local.queue_size()

        self.drive(c.servers[0].address, scenario)

    def test_ship_all(self, cluster):
        c, db = cluster

        async def scenario(proxy):
            shipped = await settle(proxy.ship_all())
            assert {t.key for t in shipped} == {t.key for t in db[0::3]}

        self.drive(c.servers[0].address, scenario)

    def test_ship_local_skyline_sorted(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            burst = await settle(proxy.ship_local_skyline(0.3))
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
                await settle(proxy.prepare())
            assert await settle(proxy.ping())

        self.drive(c.servers[0].address, scenario)

    @pytest.mark.parametrize("cuts", list(CUTS.values()), ids=list(CUTS))
    def test_a_reply_in_pieces_parses_the_same(self, cluster, cuts):
        c, db = cluster
        local = LocalSite(0, db[0::3])

        async def scenario(proxy):
            assert await settle(proxy.ping()) is True
            assert await settle(proxy.prepare(0.3)) == local.prepare(0.3)
            assert await settle(proxy.queue_size()) == local.queue_size()
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
                await settle(proxy._call("frobnicate"))

        self.drive(c.servers[0].address, scenario)

    def test_application_error_is_authoritative(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            with pytest.raises(RuntimeError, match="RPC failed.*threshold"):
                await settle(proxy.prepare(1.5))
            # Not a transport fault: never retried, and the connection
            # survives it.
            assert proxy.reconnects == 0
            assert await settle(proxy.ping())
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
                await settle(proxy.prepare(0.3))
            assert time.perf_counter() - started < 0.55  # not waited out twice
            assert proxy.timeouts == 1
            assert proxy._needs_redial
            assert proxy.reconnects == 0
            # A late reply may still arrive on the old stream, so the
            # next call goes out on a fresh connection.
            assert await settle(proxy.ping())
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
            assert await settle(proxy.ping()) is True
            assert proxy.reconnects == 1
            # The abandoned prepare did run, on the shared site.
            assert await settle(proxy.queue_size()) == prepared
            assert errors == []

        site.prepare = slow_prepare
        try:
            self.drive(c.servers[0].address, scenario, timeout=0.15)
        finally:
            site.prepare = prompt_prepare

    def test_a_late_reply_after_a_timeout_answers_no_later_call(self, cluster):
        async def time_out(proxy):
            with pytest.raises(SiteTimeout):
                await settle(proxy.prepare(0.3))

        self.late_reply(cluster, time_out)

    def test_a_cancelled_calls_late_reply_answers_no_later_call(self, cluster):
        if self.kit is SYNC:
            pytest.skip("a blocking call cannot be cancelled in flight")

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
                    await settle(proxy.queue_size())
                assert proxy.timeouts == 1

            self.drive(listener.getsockname(), scenario, timeout=0.2)

    def test_retry_reconnects_after_connection_drop(self, cluster):
        """With retries enabled, a severed connection self-heals for
        idempotent RPCs (the server still listens)."""
        c, _ = cluster

        async def scenario(proxy):
            assert await settle(proxy.ping())
            self.kit.sever(proxy)  # transient fault
            assert await settle(proxy.prepare(0.3)) >= 1  # idempotent -> retried
            assert proxy.reconnects == 1

        self.drive(c.servers[0].address, scenario, retries=2)

    def test_pop_is_never_retried(self, cluster):
        """An ambiguous drop during pop must surface, not silently re-pop."""
        c, _ = cluster

        async def scenario(proxy):
            await settle(proxy.prepare(0.3))
            self.kit.sever(proxy)
            with pytest.raises((ConnectionError, OSError)):
                await settle(proxy.pop_representative())
            assert proxy.reconnects == 0

        self.drive(c.servers[0].address, scenario, retries=5)

    def test_a_call_on_a_connection_already_lost_fails_at_once(self, cluster):
        """No waiting out the deadline for a reply that cannot come."""
        c, _ = cluster

        async def scenario(proxy):
            assert await settle(proxy.ping())
            self.kit.sever(proxy)
            await asyncio.sleep(0.05)  # the loss has been noticed
            started = time.perf_counter()
            with pytest.raises((ConnectionError, OSError)):
                await settle(proxy.pop_representative())
            assert time.perf_counter() - started < 1.0

        self.drive(c.servers[0].address, scenario, timeout=5.0)

    def test_an_abandoned_exchange_forces_a_redial(self, cluster):
        """Whatever ends an exchange before its reply is read — here the
        pump simply never answers, as when its await is cancelled —
        leaves the stream position unknown: the next call re-dials."""
        c, _ = cluster

        async def scenario(proxy):
            assert await settle(proxy.ping())
            script = proxy._call_script("prepare", (0.3,))
            assert next(script) is not None  # the request frame is out
            script.close()
            assert proxy._needs_redial
            assert await settle(proxy.ping()) is True
            assert proxy.reconnects == 1
            assert await settle(proxy.queue_size()) == 0
            assert not proxy._needs_redial

        self.drive(c.servers[0].address, scenario)

    def test_closed_proxy_never_silently_redials(self, cluster):
        c, _ = cluster

        async def scenario(proxy):
            assert await settle(proxy.ping())
            await settle(proxy.close())
            # A straggling RPC after teardown must fail loudly, not dial
            # a fresh connection past the owner that released it.
            with pytest.raises(ConnectionError, match="closed"):
                await settle(proxy.ping())
            assert proxy.reconnects == 0

        self.drive(c.servers[0].address, scenario, retries=1)
