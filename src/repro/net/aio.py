"""The asyncio transport: overlapping site RPCs without threads.

The serving layer (:mod:`repro.serve`) multiplexes many progressive
queries on one event loop, so its coordinator→site RPCs must not block
that loop.  This module provides the async half of the endpoint
contract:

* :class:`AsyncSiteEndpoint` — the awaitable mirror of
  :class:`~repro.net.transport.SiteEndpoint`, one coroutine per
  protocol message.
* :class:`AsyncLocalEndpoint` — adapts any *sync* endpoint (an
  in-process :class:`~repro.distributed.site.LocalSite`, a fork, a
  fault-injecting wrapper) by yielding to the event loop around each
  call, so co-scheduled sessions interleave at RPC granularity even
  when the work itself is in-process.
* :class:`AsyncRemoteSiteProxy` — the asyncio-streams twin of
  :class:`~repro.net.sockets.RemoteSiteProxy`: same 4-byte big-endian
  length-prefixed JSON framing, same timeout → SiteTimeout escalation,
  same never-retry rule for the non-idempotent ``pop_representative``
  — so RPCs to *distinct* sites genuinely overlap in one thread.

Servers are unchanged: an :class:`~repro.net.sockets.SiteServer` hosts
both proxy flavours, because the wire format is identical.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.tuples import UncertainTuple
from ..fault.errors import SiteTimeout
from .message import Quaternion, decode_tuple, encode_tuple
from .sockets import _LENGTH, _frame_length
from .transport import SiteEndpoint

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import BatchProbeReply, ProbeReply

__all__ = [
    "AsyncSiteEndpoint",
    "AsyncLocalEndpoint",
    "AsyncRemoteSiteProxy",
    "connect_async_sites",
]


class AsyncSiteEndpoint(Protocol):
    """The awaitable mirror of the coordinator↔site RPC surface."""

    site_id: int

    async def prepare(self, threshold: float) -> int:
        """Local computing phase; returns |SKY(D_i)|."""

    async def pop_representative(self) -> Optional[Quaternion]:
        """To-Server phase; None once exhausted."""

    async def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        """Server-Delivery + Local-Pruning; returns a ProbeReply."""

    async def queue_size(self) -> int:
        """Remaining local candidates (control information)."""


class AsyncLocalEndpoint:
    """Await-shaped adapter over a synchronous :class:`SiteEndpoint`.

    Each RPC yields to the event loop (``await asyncio.sleep(0)``)
    before running the in-process call, so a service scheduling many
    sessions interleaves them at RPC granularity.  The inner call
    itself runs on the loop thread — in-process sites are compute, not
    I/O, and moving them to a thread pool would only add overhead and
    nondeterminism.
    """

    def __init__(self, inner: SiteEndpoint) -> None:
        self.inner = inner
        self.site_id = inner.site_id

    async def prepare(self, threshold: float) -> int:
        await asyncio.sleep(0)
        return self.inner.prepare(threshold)  # skylint: ignore[SKY601] in-process site: compute on the loop by design (see class docstring)

    async def pop_representative(self) -> Optional[Quaternion]:
        await asyncio.sleep(0)
        return self.inner.pop_representative()  # skylint: ignore[SKY601] in-process site: compute on the loop by design (see class docstring)

    async def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        await asyncio.sleep(0)
        return self.inner.probe_and_prune(t)  # skylint: ignore[SKY601] in-process site: compute on the loop by design (see class docstring)

    async def probe_and_prune_batch(
        self, ts: Sequence[UncertainTuple]
    ) -> "BatchProbeReply":
        await asyncio.sleep(0)
        return self.inner.probe_and_prune_batch(ts)  # type: ignore[attr-defined, no-any-return]

    async def queue_size(self) -> int:
        await asyncio.sleep(0)
        return self.inner.queue_size()  # skylint: ignore[SKY601] in-process site: compute on the loop by design (see class docstring)

    def __getattr__(self, name: str) -> Any:
        # Expose everything else (update hooks, replica access, …) for
        # callers that know the inner endpoint is in-process.
        return getattr(self.inner, name)


class AsyncRemoteSiteProxy:
    """:class:`AsyncSiteEndpoint` speaking the TCP protocol via asyncio.

    Wire-compatible with :class:`~repro.net.sockets.SiteServer`.
    ``timeout`` bounds connect and each request/response exchange; on
    expiry the stream position is ambiguous, so the connection is
    marked for re-dial and :class:`~repro.fault.errors.SiteTimeout` is
    raised for the coordinator's retry policy to arbitrate.  A dropped
    connection is transparently re-dialed and the RPC re-issued up to
    ``retries`` times — except ``pop_representative``, which is never
    retried (re-popping after an ambiguous failure could skip a
    candidate).
    """

    _NON_IDEMPOTENT = frozenset({"pop_representative"})

    def __init__(
        self,
        site_id: int,
        address: Tuple[str, int],
        timeout: float = 30.0,
        retries: int = 0,
    ) -> None:
        self.site_id = site_id
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self.reconnects = 0
        self.timeouts = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._needs_redial = False
        self._closed = False

    @classmethod
    async def connect(
        cls,
        site_id: int,
        address: Tuple[str, int],
        timeout: float = 30.0,
        retries: int = 0,
    ) -> "AsyncRemoteSiteProxy":
        """Dial the site server and return a connected proxy."""
        proxy = cls(site_id, address, timeout=timeout, retries=retries)
        await proxy._dial()
        return proxy

    async def _dial(self) -> None:
        if self._closed:
            # A closed proxy must never silently reconnect: session
            # teardown released the socket, and a late RPC re-dialing
            # here would leak a fresh connection past the owner.
            raise ConnectionError(f"proxy for site {self.site_id} is closed")
        await self._close_stream()
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(*self.address), timeout=self.timeout
            )
        except asyncio.TimeoutError as exc:
            self.timeouts += 1
            raise SiteTimeout(
                self.site_id, f"no connection within {self.timeout}s"
            ) from exc
        self._needs_redial = False

    async def _close_stream(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        assert self._reader is not None and self._writer is not None
        raw = json.dumps(payload).encode("utf-8")
        self._writer.write(_LENGTH.pack(len(raw)) + raw)
        await self._writer.drain()
        header = await self._reader.readexactly(_LENGTH.size)
        body = await self._reader.readexactly(_frame_length(header))
        return dict(json.loads(body.decode("utf-8")))

    async def _call(self, method: str, **kwargs: Any) -> Any:
        if self._closed:
            raise ConnectionError(f"proxy for site {self.site_id} is closed")
        attempts = 1 + (0 if method in self._NON_IDEMPOTENT else self.retries)
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                if attempt > 0 or self._needs_redial or self._writer is None:
                    await self._dial()
                    if attempt > 0:
                        self.reconnects += 1
                response = await asyncio.wait_for(
                    self._exchange({"method": method, **kwargs}),
                    timeout=self.timeout,
                )
                if not response["ok"]:
                    # An application error is authoritative — no retry.
                    raise RuntimeError(
                        f"site {self.site_id} RPC failed: {response['error']}"
                    )
                return response["result"]
            except asyncio.TimeoutError as exc:
                # A late reply may still be in flight; the stream is
                # unusable until re-dialed.  Escalate immediately.
                self.timeouts += 1
                self._needs_redial = True
                raise SiteTimeout(
                    self.site_id,
                    f"no answer to {method!r} within {self.timeout}s",
                ) from exc
            except asyncio.IncompleteReadError as exc:
                self._needs_redial = True
                last_error = ConnectionError(
                    f"site {self.site_id} closed the connection"
                )
                last_error.__cause__ = exc
            except (ConnectionError, OSError) as exc:
                self._needs_redial = True
                last_error = exc
        assert last_error is not None
        raise last_error

    async def prepare(self, threshold: float) -> int:
        return int(await self._call("prepare", threshold=threshold))

    async def pop_representative(self) -> Optional[Quaternion]:
        result = await self._call("pop_representative")
        return None if result is None else Quaternion.from_dict(result)

    async def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        from ..distributed.site import ProbeReply

        result = await self._call("probe_and_prune", tuple=encode_tuple(t))
        return ProbeReply(
            factor=float(result["factor"]),
            pruned=int(result["pruned"]),
            queue_remaining=int(result["queue_remaining"]),
        )

    async def probe_and_prune_batch(
        self, ts: Sequence[UncertainTuple]
    ) -> "BatchProbeReply":
        from ..distributed.site import BatchProbeReply

        result = await self._call(
            "probe_and_prune_batch", tuples=[encode_tuple(t) for t in ts]
        )
        return BatchProbeReply(
            factors=[float(f) for f in result["factors"]],
            pruned=int(result["pruned"]),
            queue_remaining=int(result["queue_remaining"]),
        )

    async def queue_size(self) -> int:
        return int(await self._call("queue_size"))

    async def ship_all(self) -> List[UncertainTuple]:
        return [decode_tuple(d) for d in await self._call("ship_all")]

    async def ship_local_skyline(self, threshold: float) -> List[Quaternion]:
        return [
            Quaternion.from_dict(d)
            for d in await self._call("ship_local_skyline", threshold=threshold)
        ]

    async def ping(self) -> bool:
        return bool(await self._call("ping") == "pong")

    async def close(self) -> None:
        """Release the connection; idempotent, and final.

        Waits for the transport to actually close (``wait_closed``
        inside :meth:`_close_stream`), so rapid session churn cannot
        accumulate half-open sockets, and flags the proxy so a
        straggling RPC cannot silently re-dial afterwards.
        """
        self._closed = True
        await self._close_stream()


async def connect_async_sites(
    addresses: Sequence[Tuple[int, Tuple[str, int]]],
    timeout: float = 30.0,
    retries: int = 0,
) -> List[AsyncRemoteSiteProxy]:
    """Dial many site servers concurrently (one proxy per address).

    ``addresses`` is ``(site_id, (host, port))`` pairs.  Dials overlap
    — the whole fan-out costs one round trip — and on any failure the
    proxies already connected are closed before the error propagates.
    """
    results = await asyncio.gather(
        *(
            AsyncRemoteSiteProxy.connect(
                site_id, address, timeout=timeout, retries=retries
            )
            for site_id, address in addresses
        ),
        return_exceptions=True,
    )
    failure: Optional[BaseException] = None
    proxies: List[AsyncRemoteSiteProxy] = []
    for item in results:
        if isinstance(item, AsyncRemoteSiteProxy):
            proxies.append(item)
        elif failure is None:
            failure = item
    if failure is not None:
        for proxy in proxies:
            try:
                await proxy.close()
            except (ConnectionError, OSError):
                # Best-effort cleanup: one endpoint refusing to close
                # must not leak the rest of the fan-out.
                continue
        raise failure
    return proxies
