"""The asyncio transport: overlapping site RPCs without threads.

The serving layer (:mod:`repro.serve`) multiplexes many progressive
queries on one event loop, so its coordinator→site RPCs must not block
that loop.  This module provides the awaitable endpoints:

* :class:`AsyncLocalEndpoint` — adapts any *sync* endpoint (an
  in-process :class:`~repro.distributed.site.LocalSite`, a fork, a
  fault-injecting wrapper) by yielding to the event loop before each
  call, so co-scheduled sessions interleave at RPC granularity even
  when the work itself is in-process.
* :class:`AsyncRemoteSiteProxy` — the awaiting pump of
  :class:`~repro.net.rpc.SiteProxy`'s call script: the frames, the
  timeout → SiteTimeout escalation and the never-retry rule for
  ``pop_representative`` are the ones
  :class:`~repro.net.sockets.RemoteSiteProxy` runs, moved over asyncio
  streams — so RPCs to *distinct* sites genuinely overlap in one thread.

Servers are unchanged: an :class:`~repro.net.sockets.SiteServer` hosts
both proxy flavours, because the wire format is identical.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, List, Optional, Sequence, Tuple

from .rpc import HEADER_BYTES, Outcome, Script, SiteProxy, _frame_length
from .transport import EndpointInterceptor

__all__ = [
    "AsyncLocalEndpoint",
    "AsyncRemoteSiteProxy",
    "connect_async_sites",
]


class AsyncLocalEndpoint(EndpointInterceptor):
    """Await-shaped adapter over a synchronous :class:`SiteEndpoint`.

    Each RPC yields to the event loop (``await asyncio.sleep(0)``)
    before running the in-process call, so a service scheduling many
    sessions interleaves them at RPC granularity.  The inner call
    itself runs on the loop thread — in-process sites are compute, not
    I/O, and moving them to a thread pool would only add overhead and
    nondeterminism.
    """

    def before(self, method: str, args: Tuple[Any, ...]) -> Awaitable[None]:
        return asyncio.sleep(0)


class AsyncRemoteSiteProxy(SiteProxy):
    """The awaiting pump of :class:`~repro.net.rpc.SiteProxy`.

    Wire-compatible with :class:`~repro.net.sockets.SiteServer`; every
    method returns a coroutine.  The constructor does not dial — use
    :meth:`connect`, or let the first RPC dial.
    """

    _TIMEOUT = asyncio.TimeoutError
    _reader: Optional[asyncio.StreamReader] = None
    _writer: Optional[asyncio.StreamWriter] = None

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
        await proxy._pump(proxy._connect_script())
        return proxy

    async def _pump(self, script: Script) -> Any:
        try:
            request = next(script)
            while True:
                request = script.send(await self._io(request))
        except StopIteration as done:
            return done.value

    async def _io(self, request: Optional[bytes]) -> Outcome:
        step: Awaitable[Optional[bytes]] = (
            self._dial() if request is None else self._exchange(request)
        )
        try:
            return await asyncio.wait_for(step, timeout=self.timeout), None
        except asyncio.IncompleteReadError:
            return None, None  # the site hung up mid-frame
        except (asyncio.TimeoutError, OSError) as exc:
            return None, exc

    async def _dial(self) -> None:
        await self._close_stream()
        self._reader, self._writer = await asyncio.open_connection(*self.address)

    async def _exchange(self, frame: bytes) -> bytes:
        assert self._reader is not None and self._writer is not None
        self._writer.write(frame)
        await self._writer.drain()
        header = await self._reader.readexactly(HEADER_BYTES)
        return await self._reader.readexactly(_frame_length(header))

    async def _close_stream(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

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
