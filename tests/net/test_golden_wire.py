"""Committed golden wire frames for the site RPC surface.

One scripted conversation — every method, a hit and an exhausted pop,
an unknown method and an application error — is driven through a
recording TCP relay that sits between the proxy and a ``SiteServer``
and journals each request and reply frame byte for byte.
``golden_wire.json`` was recorded at commit cd4b865, before the method
table, the shared proxy core and the endpoint interceptor existed, so
it is an independent witness of the wire format: a proxy from that
commit talks to this commit's server, and the reverse, exactly when
this commit's proxy still reproduces it.

Re-record (only for a deliberate wire change)::

    PYTHONPATH=src python -m tests.net.test_golden_wire
"""

import asyncio
import json
import socket
import socketserver
import struct
import threading
from pathlib import Path

import pytest

from repro.distributed.site import LocalSite
from repro.net.aio import AsyncRemoteSiteProxy
from repro.net.sockets import SiteServer

from ..conftest import make_random_database

GOLDEN = Path(__file__).with_name("golden_wire.json")
HEADER = struct.Struct(">I")


def conversation():
    """``(label, method, args, raises)`` in the order they go on the wire."""
    db = make_random_database(12, 2, seed=5)
    foreign = make_random_database(3, 2, seed=6, start_key=100)
    script = [
        ("ping", "ping", (), None),
        ("prepare", "prepare", (0.3,), None),
        ("queue_size", "queue_size", (), None),
        ("pop_representative hit", "pop_representative", (), None),
        ("probe_and_prune", "probe_and_prune", (foreign[0],), None),
        ("probe_and_prune_batch", "probe_and_prune_batch", (foreign[1:],), None),
        ("ship_all", "ship_all", (), None),
        ("ship_local_skyline", "ship_local_skyline", (0.3,), None),
        ("unknown method", "_call", ("frobnicate",), RuntimeError),
        ("application error", "prepare", (1.5,), RuntimeError),
    ]
    return db, script


def _read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _read_frame(sock):
    header = _read_exact(sock, HEADER.size)
    if header is None:
        return None
    return header + _read_exact(sock, HEADER.unpack(header)[0])


class _Relay(socketserver.ThreadingTCPServer):
    """Forwards frames to ``upstream`` and journals both directions."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, upstream):
        super().__init__(("127.0.0.1", 0), _RelayHandler)
        self.upstream = upstream
        self.journal = []


class _RelayHandler(socketserver.BaseRequestHandler):
    def handle(self):
        with socket.create_connection(self.server.upstream, timeout=10.0) as upstream:
            while True:
                request = _read_frame(self.request)
                if request is None:
                    return
                upstream.sendall(request)
                reply = _read_frame(upstream)
                self.server.journal.append((request, reply))
                self.request.sendall(reply)


def _bodies(journal):
    out = []
    for request, reply in journal:
        for frame in (request, reply):
            assert frame[: HEADER.size] == HEADER.pack(len(frame) - HEADER.size)
        out.append(
            {
                "request": request[HEADER.size :].decode("utf-8"),
                "reply": reply[HEADER.size :].decode("utf-8"),
            }
        )
    return out


def _drive(address, script):
    async def scenario():
        proxy = await AsyncRemoteSiteProxy.connect(0, address, timeout=10.0)
        try:
            for _, method, args, raises in script:
                if raises is None:
                    await getattr(proxy, method)(*args)
                else:
                    with pytest.raises(raises, match="RPC failed"):
                        await getattr(proxy, method)(*args)
            while await proxy.pop_representative() is not None:
                pass
        finally:
            await proxy.close()

    asyncio.run(scenario())


def record():
    """The conversation's frames as ``[{call, request, reply}, ...]``."""
    db, script = conversation()
    server = SiteServer(LocalSite(0, db))
    relay = _Relay(server.address)
    server.serve_in_thread()
    threading.Thread(target=relay.serve_forever, args=(0.02,), daemon=True).start()
    try:
        _drive(relay.server_address, script)
    finally:
        for s in (relay, server):
            s.shutdown()
            s.server_close()
    frames = _bodies(relay.journal)
    # The application error re-prepared nothing, so the drain that
    # follows the script pops the rest of the q = 0.3 queue.
    labels = [label for label, *_ in script]
    labels += ["pop_representative hit"] * (len(frames) - len(labels) - 1)
    labels += ["pop_representative exhausted"]
    return [{"call": label, **frame} for label, frame in zip(labels, frames)]


def test_every_frame_matches_the_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    recorded = record()
    assert [f["call"] for f in recorded] == [f["call"] for f in golden]
    for got, want in zip(recorded, golden):
        assert got == want, want["call"]


def test_the_golden_covers_the_whole_surface():
    golden = json.loads(GOLDEN.read_text())
    assert {f["call"] for f in golden} == {
        "ping",
        "prepare",
        "queue_size",
        "pop_representative hit",
        "pop_representative exhausted",
        "probe_and_prune",
        "probe_and_prune_batch",
        "ship_all",
        "ship_local_skyline",
        "unknown method",
        "application error",
    }
    exhausted = [f for f in golden if f["call"] == "pop_representative exhausted"]
    assert [json.loads(f["reply"]) for f in exhausted] == [{"ok": True, "result": None}]


if __name__ == "__main__":
    frames = record()
    GOLDEN.write_text(json.dumps(frames, indent=1) + "\n")
    print(f"recorded {len(frames)} frames to {GOLDEN}")
