"""TCP transport: RPC semantics and full-protocol integration."""

import asyncio
import contextlib
import socket
import socketserver
import threading
import time

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.fault.errors import RETRYABLE_FAULTS
from repro.net.aio import AsyncRemoteSiteProxy
from repro.net.rpc import _LENGTH, MAX_FRAME_BYTES
from repro.net.sockets import _recv_frame, host_sites, host_sites_in_processes

from ..conftest import make_random_database, query_over_tcp


def ping(address):
    """One ``ping`` from a fresh TCP client."""

    async def scenario():
        proxy = await AsyncRemoteSiteProxy.connect(0, address, timeout=5.0)
        try:
            return await proxy.ping()
        finally:
            await proxy.close()

    return asyncio.run(scenario())


class TestFramingRobustness:
    """A hostile or buggy peer must never take the site server down."""

    @pytest.fixture
    def server(self):
        db = make_random_database(50, 2, seed=20)
        with host_sites([db]) as cluster:
            yield cluster

    def _raw_connection(self, server):
        import socket

        return socket.create_connection(server.servers[0].address, timeout=5)

    def test_garbage_bytes_then_clean_client_still_served(self, server):
        import struct

        sock = self._raw_connection(server)
        # A frame whose body is not JSON: handler answers an error or
        # drops the connection — either way it must not crash the server.
        body = b"\xff\xfenot json at all"
        sock.sendall(struct.pack(">I", len(body)) + body)
        try:
            sock.recv(4096)
        except OSError:
            pass
        sock.close()
        assert ping(server.servers[0].address)

    def test_truncated_frame_then_disconnect(self, server):
        import struct

        sock = self._raw_connection(server)
        sock.sendall(struct.pack(">I", 1_000)[:2])  # half a length prefix
        sock.close()
        assert ping(server.servers[0].address)

    def test_valid_json_wrong_schema_gets_error_reply(self, server):
        import json
        import struct

        sock = self._raw_connection(server)
        body = json.dumps({"not_method": True}).encode()
        sock.sendall(struct.pack(">I", len(body)) + body)
        header = sock.recv(4)
        (length,) = struct.unpack(">I", header)
        reply = json.loads(sock.recv(length))
        assert reply["ok"] is False
        sock.close()
        assert ping(server.servers[0].address)

    def test_many_hostile_connections(self, server):
        import struct

        for payload in (b"", b"\x00" * 7, b"{", b"[1,2,3]"):
            sock = self._raw_connection(server)
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            try:
                sock.recv(1024)
            except OSError:
                pass
            sock.close()
        assert ping(server.servers[0].address)


class TestEndToEnd:
    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_full_query_over_tcp_matches_central(self, coordinator_cls):
        db = make_random_database(300, 2, seed=2, grid=10)
        partitions = [db[i::4] for i in range(4)]
        central = prob_skyline_sfs(db, 0.3)
        with host_sites(partitions) as c:
            result = query_over_tcp(c.addresses, lambda proxies: coordinator_cls(proxies, 0.3))
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_site_crash_mid_query_degrades_and_discloses(self):
        """A dead site must never hang the query or silently corrupt the
        answer: the run completes degraded and the coverage report says
        exactly which site was lost (Corollary-1 upper-bound mode)."""
        db = make_random_database(200, 2, seed=7, grid=10)
        partitions = [db[i::3] for i in range(3)]
        with host_sites(partitions) as cluster:

            def crash_site_1(proxies):
                # A process crash kills the listener *and* its established
                # connections; shutdown() alone leaves handler threads
                # serving, so sever the proxy's connection as the crash would.
                victim = cluster.servers[1]
                victim.shutdown()
                victim.server_close()
                proxies[1]._wire.transport.close()
                return EDSUD(proxies, 0.3)

            result = query_over_tcp(cluster.addresses, crash_site_1)
        assert result.coverage is not None
        assert not result.coverage.complete
        assert 1 in result.coverage.down_sites

    def test_connection_drop_during_rpc(self):
        """Closing the proxy's connection mid-conversation raises cleanly."""
        db = make_random_database(60, 2, seed=8)

        async def scenario(address):
            proxy = await AsyncRemoteSiteProxy.connect(0, address)
            try:
                assert await proxy.ping()
                proxy._wire.transport.close()
                with pytest.raises(OSError):
                    await proxy.prepare(0.3)
            finally:
                await proxy.close()

        with host_sites([db]) as cluster:
            asyncio.run(scenario(cluster.servers[0].address))

    def test_teardown_releases_ports(self):
        db = make_random_database(30, 2, seed=3)
        with host_sites([db]) as c:
            port = c.servers[0].address[1]
        # After close the same port can be bound again (SO_REUSEADDR
        # mirrors what the server itself sets, so a lingering TIME_WAIT
        # from the test connection does not matter).
        import socket

        s = socket.socket()
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", port))
        s.close()


class TestInThreadHosting:
    def test_eight_servers_start_and_close_within_a_second(self):
        """A server that has just served a call waits out one whole poll
        before it shuts down: a short one, not socketserver's 0.5 s."""
        db = make_random_database(80, 2, seed=15)
        started = time.perf_counter()
        for i in range(8):
            with host_sites([db[i::8]]) as cluster:
                assert ping(cluster.servers[0].address)
        assert time.perf_counter() - started < 1.0

    def test_both_hostings_hand_out_the_same_addresses(self):
        db = make_random_database(60, 2, seed=16)
        partitions = [db[i::3] for i in range(3)]

        def shape(addresses):
            return [(site_id, host, type(port)) for site_id, (host, port) in addresses]

        with host_sites(partitions) as threads, host_sites_in_processes(
            partitions
        ) as processes:
            assert shape(threads.addresses) == shape(processes.addresses)
            assert shape(threads.addresses) == [(i, "127.0.0.1", int) for i in range(3)]


class TestProcessHosting:
    """Site servers in their own OS processes (the distributed deploy)."""

    def test_process_cluster_serves_full_queries(self):
        db = make_random_database(200, 2, seed=11, grid=10)
        partitions = [db[i::3] for i in range(3)]
        central = prob_skyline_sfs(db, 0.3)
        with host_sites_in_processes(partitions) as cluster:
            result = query_over_tcp(cluster.addresses, lambda proxies: DSUD(proxies, 0.3))
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_fork_per_connection_isolates_concurrent_queries(self):
        """Two connections to one server must not share queue state:
        each gets a private fork, so both pop the same representative
        first — exactly what per-session isolation requires."""
        db = make_random_database(120, 2, seed=12, grid=10)

        async def scenario(site_id, address):
            a = await AsyncRemoteSiteProxy.connect(site_id, address)
            b = await AsyncRemoteSiteProxy.connect(site_id, address)
            try:
                assert await a.prepare(0.3) == await b.prepare(0.3)
                first_a = await a.pop_representative()
                first_b = await b.pop_representative()
                assert first_a is not None and first_b is not None
                assert first_a.tuple.key == first_b.tuple.key
            finally:
                await a.close()
                await b.close()

        with host_sites_in_processes([db], fork_per_connection=True) as cluster:
            asyncio.run(scenario(*cluster.addresses[0]))

    def test_rpc_delay_is_applied_per_request(self):
        """The deterministic WAN stand-in: every RPC takes at least the
        configured service delay."""
        db = make_random_database(40, 2, seed=13)

        async def scenario(site_id, address):
            proxy = await AsyncRemoteSiteProxy.connect(site_id, address)
            try:
                start = time.perf_counter()
                assert await proxy.ping()
                assert time.perf_counter() - start >= 0.05
            finally:
                await proxy.close()

        with host_sites_in_processes([db], rpc_delay=0.05) as cluster:
            asyncio.run(scenario(*cluster.addresses[0]))

    def test_close_terminates_all_site_processes(self):
        db = make_random_database(30, 2, seed=14)
        cluster = host_sites_in_processes([db[0::2], db[1::2]])
        assert all(p.is_alive() for p in cluster.processes)
        cluster.close()
        assert all(not p.is_alive() for p in cluster.processes)


class TestFrameReader:
    def test_a_64_mb_frame_reads_in_linear_time(self):
        """The blocking reader fills one preallocated buffer, so a frame
        the cap allows arrives well inside a proxy's deadline."""
        body = bytes(range(256)) * (1 << 18)  # 64 MiB
        left, right = socket.socketpair()
        with left, right:

            def feed():
                left.sendall(_LENGTH.pack(len(body)))
                left.sendall(body)

            feeder = threading.Thread(target=feed, daemon=True)
            started = time.perf_counter()
            feeder.start()
            received = _recv_frame(right)
            elapsed = time.perf_counter() - started
            feeder.join(timeout=10.0)
        assert not feeder.is_alive()
        assert received == body
        assert elapsed < 2.0


class TestFrameCap:
    """A hostile or corrupt length prefix is refused at the header: a
    retryable fault and a dropped connection, never a wait for (or an
    allocation of) a body that will not come."""

    @staticmethod
    @contextlib.contextmanager
    def hostile_server():
        """Answers every request with an oversized header and no body."""

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                while _recv_frame(self.request) is not None:
                    self.request.sendall(_LENGTH.pack(MAX_FRAME_BYTES + 1))

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True).start()
        try:
            yield server.server_address
        finally:
            server.shutdown()
            server.server_close()

    @staticmethod
    def assert_refused(error, proxy):
        assert isinstance(error, RETRYABLE_FAULTS)
        assert not isinstance(error, TimeoutError)  # refused, not waited out
        assert "frame header" in str(error)
        assert proxy._needs_redial

    def test_site_server_drops_the_connection(self, cluster):
        c, _ = cluster
        with socket.create_connection(c.servers[0].address, timeout=5.0) as raw:
            raw.sendall(_LENGTH.pack(MAX_FRAME_BYTES + 1))
            assert raw.recv(1) == b""  # hung up without reading a body
        assert ping(c.servers[0].address)  # and still serves everyone else

    def test_async_remote_site_proxy_raises_a_retryable_fault(self):
        async def scenario(address):
            proxy = await AsyncRemoteSiteProxy.connect(0, address, timeout=5.0)
            try:
                with pytest.raises(ConnectionError) as caught:
                    await proxy.ping()
                self.assert_refused(caught.value, proxy)
            finally:
                await proxy.close()

        with self.hostile_server() as address:
            asyncio.run(scenario(address))
