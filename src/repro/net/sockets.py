"""TCP site servers for the coordinator↔site protocol.

The experiments run in-process (bandwidth accounting is exact either
way), but a reproduction of a *distributed* system should also actually
run distributed.  This module hosts each :class:`LocalSite` behind a
TCP server — in threads (:func:`host_sites`) or in OS processes
(:func:`host_sites_in_processes`) — and both hand out the
``(site_id, (host, port))`` addresses that
:func:`repro.net.aio.connect_async_sites` dials, so any coordinator
runs unchanged against real sockets through ``asteps()`` — see
``examples/sensor_fusion_live.py`` and the transport integration tests.

The frame format and the per-method codecs live in
:mod:`repro.net.rpc`; this module only serves frames.
"""

from __future__ import annotations

import multiprocessing
import socket
import socketserver
import threading
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from .rpc import HEADER_BYTES, _frame_length, decode_body, dispatch, encode_frame

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import LocalSite, SiteConfig

__all__ = [
    "SiteServer",
    "host_sites",
    "SiteCluster",
    "ProcessSiteCluster",
    "host_sites_in_processes",
]


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    view = memoryview(bytearray(n))  # filled in place: linear in n
    while view:
        got = sock.recv_into(view)
        if not got:
            return None
        view = view[got:]
    return bytes(view.obj)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    """One frame's body; ``None`` once the peer has hung up."""
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    return _recv_exact(sock, _frame_length(header))


class _SiteRequestHandler(socketserver.BaseRequestHandler):
    """Serves RPCs against the hosted LocalSite until the peer hangs up."""

    def handle(self) -> None:
        site = self.server.session_site()  # type: ignore[attr-defined]
        delay = getattr(self.server, "rpc_delay", 0.0)
        while True:
            try:
                body = _recv_frame(self.request)
            except ConnectionError:
                return  # oversized header: drop the connection
            if body is None:
                return
            request = decode_body(body)
            try:
                if delay > 0.0:
                    # Simulated WAN service time, applied before the
                    # dispatch so it covers cache hits too.
                    time.sleep(delay)
                reply = encode_frame({"ok": True, "result": dispatch(site, request)})
            except Exception as exc:  # surfaced to the caller, not swallowed
                reply = encode_frame({"ok": False, "error": repr(exc)})
            self.request.sendall(reply)


class SiteServer(socketserver.ThreadingTCPServer):
    """Hosts one LocalSite on a TCP port (127.0.0.1, ephemeral by default).

    By default every connection shares the one hosted site — the
    historical single-query behaviour.  ``fork_per_connection`` makes
    the hosted site a *template*: each connection is served by a fresh
    :meth:`LocalSite.fork`, so many concurrent query sessions get
    independent queue/feedback state over the same partition (the
    remote twin of :class:`repro.serve.sites.SharedSiteHost`), sharing
    its memo: a local skyline, factor or dominance row is computed once
    across connections.  ``rpc_delay`` adds a per-RPC service-time sleep —
    a deterministic stand-in for WAN latency (``perf/``'s ``remote_wan``),
    so socket-wait overlap is measurable on localhost.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        site: "LocalSite",
        host: str = "127.0.0.1",
        port: int = 0,
        fork_per_connection: bool = False,
        rpc_delay: float = 0.0,
    ) -> None:
        super().__init__((host, port), _SiteRequestHandler)
        self.site = site
        self.fork_per_connection = fork_per_connection
        self.rpc_delay = rpc_delay
        self.forks_served = 0

    def session_site(self) -> "LocalSite":
        """The site one incoming connection should talk to."""
        if not self.fork_per_connection:
            return self.site
        self.forks_served += 1
        return self.site.fork()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address  # type: ignore[return-value]

    def serve_in_thread(self) -> threading.Thread:
        # poll_interval = 20 ms: shutdown() waits out at most one poll.
        thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        return thread


class SiteCluster:
    """Thread-hosted TCP sites, with clean teardown.

    ``addresses`` is ``(site_id, (host, port))`` pairs, as
    :class:`ProcessSiteCluster` has.  Host in sync code; query on a
    loop::

        with host_sites(partitions, preference) as cluster:
            result = asyncio.run(query(cluster.addresses))

    where ``query`` dials :func:`repro.net.aio.connect_async_sites` and
    drives a coordinator's ``asteps()``/``afinish()``.
    """

    def __init__(self, servers: List[SiteServer]) -> None:
        self.servers = servers
        self.addresses = [(i, server.address) for i, server in enumerate(servers)]

    def __enter__(self) -> "SiteCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        for server in self.servers:
            server.shutdown()
            server.server_close()


def host_sites(
    partitions: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
    site_config: "Optional[SiteConfig]" = None,
) -> SiteCluster:
    """Spin up one thread-hosted LocalSite server per partition on localhost."""
    from ..distributed.site import LocalSite

    servers: List[SiteServer] = []
    try:
        for i, partition in enumerate(partitions):
            site = LocalSite(
                site_id=i, database=partition, preference=preference, config=site_config
            )
            servers.append(SiteServer(site))
            servers[-1].serve_in_thread()
    except Exception:
        SiteCluster(servers).close()
        raise
    return SiteCluster(servers)


def _serve_partition_process(
    site_id: int,
    partition: Sequence[UncertainTuple],
    preference: Optional[Preference],
    site_config: "Optional[SiteConfig]",
    fork_per_connection: bool,
    rpc_delay: float,
    port_queue: "multiprocessing.Queue[int]",
) -> None:
    """Child-process entry point: host one partition until terminated."""
    from ..distributed.site import LocalSite

    site = LocalSite(
        site_id=site_id, database=partition, preference=preference, config=site_config
    )
    server = SiteServer(
        site, fork_per_connection=fork_per_connection, rpc_delay=rpc_delay
    )
    port_queue.put(server.address[1])
    server.serve_forever()


class ProcessSiteCluster:
    """TCP site servers in their own OS processes, with clean teardown.

    The genuinely distributed deployment: each partition lives in a
    separate Python process (own GIL, own memory), reachable only
    through the wire protocol.  ``addresses`` is ready to hand to
    :func:`repro.net.aio.connect_async_sites`.
    """

    def __init__(
        self,
        processes: List[multiprocessing.Process],
        addresses: List[Tuple[int, Tuple[str, int]]],
    ) -> None:
        self.processes = processes
        self.addresses = addresses

    def __enter__(self) -> "ProcessSiteCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)


def host_sites_in_processes(
    partitions: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
    site_config: "Optional[SiteConfig]" = None,
    fork_per_connection: bool = True,
    rpc_delay: float = 0.0,
    startup_timeout: float = 30.0,
) -> ProcessSiteCluster:
    """Spin up one site-server *process* per partition on localhost.

    Each child binds an ephemeral port and reports it back through a
    queue; the call returns once every server is accepting.  Uses the
    ``fork`` start method where available (no pickling of numpy-backed
    partitions through spawn), falling back to the platform default.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    processes: List[multiprocessing.Process] = []
    addresses: List[Tuple[int, Tuple[str, int]]] = []
    try:
        for i, partition in enumerate(partitions):
            port_queue: "multiprocessing.Queue[int]" = ctx.Queue(maxsize=1)
            process = ctx.Process(
                target=_serve_partition_process,
                args=(
                    i,
                    list(partition),
                    preference,
                    site_config,
                    fork_per_connection,
                    rpc_delay,
                    port_queue,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
            port = port_queue.get(timeout=startup_timeout)
            addresses.append((i, ("127.0.0.1", port)))
    except Exception:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=10.0)
        raise
    return ProcessSiteCluster(processes, addresses)
