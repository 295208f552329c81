"""The asyncio transport: overlapping site RPCs without threads.

The serving layer (:mod:`repro.serve`) multiplexes many progressive
queries on one event loop, so its coordinator→site RPCs must not block
that loop.  This module provides the awaitable endpoints:

* :class:`AsyncLocalEndpoint` — adapts any *sync* endpoint (an
  in-process :class:`~repro.distributed.site.LocalSite`, a fork, a
  fault-injecting wrapper) by yielding to the event loop before each
  call, so co-scheduled sessions interleave at RPC granularity even
  when the work itself is in-process.
* :class:`AsyncRemoteSiteProxy` — the callback pump of
  :class:`~repro.net.rpc.SiteProxy`'s call script (the frames, timeouts
  and retry rules :class:`~repro.net.sockets.RemoteSiteProxy` runs) over
  one asyncio Protocol per connection: a call is a future, its request
  on the wire when it returns, and no exchange costs a task — so RPCs
  to *distinct* sites genuinely overlap in one thread.

Servers are unchanged: an :class:`~repro.net.sockets.SiteServer` hosts
both proxy flavours, because the wire format is identical.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, List, Optional, Sequence, Tuple, cast

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


class _Wire(asyncio.Protocol):
    """One connection: frames for the exchange ``waiting`` on it, if any."""

    def __init__(self, proxy: "AsyncRemoteSiteProxy") -> None:
        self.proxy, self.buffer = proxy, bytearray()
        self.waiting: Optional[Tuple[asyncio.Future[Any], Script, asyncio.TimerHandle]] = None
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while len(self.buffer) >= HEADER_BYTES:
            try:
                end = HEADER_BYTES + _frame_length(self.buffer[:HEADER_BYTES])
            except ConnectionError as exc:
                self.transport.abort()  # the stream position is lost
                return self.answer((None, exc))
            if len(self.buffer) < end:
                return
            body, self.buffer = bytes(self.buffer[HEADER_BYTES:end]), self.buffer[end:]
            self.answer((body, None))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost.set_result(None)
        self.answer((None, exc))  # EOF: (None, None)

    def answer(self, outcome: Optional[Outcome]) -> None:
        """Go on with the exchange waiting here (``None``: its deadline passed)."""
        if self.waiting is not None:
            (future, script, deadline), self.waiting = self.waiting, None
            deadline.cancel()
            self.proxy._step(future, script, outcome or (None, asyncio.TimeoutError()))


class AsyncRemoteSiteProxy(SiteProxy):
    """The callback pump of :class:`~repro.net.rpc.SiteProxy`.

    Every method returns an :class:`asyncio.Future`; one call at a time.
    The constructor does not dial — use :meth:`connect`, or let the
    first RPC dial.
    """

    _TIMEOUT = asyncio.TimeoutError
    _wire: Optional[_Wire] = None

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

    def _pump(self, script: Script) -> asyncio.Future[Any]:
        future = asyncio.get_running_loop().create_future()
        future.add_done_callback(lambda _: script.close())  # ended, or cancelled
        self._step(future, script, None)
        return future

    def _step(self, future: asyncio.Future[Any], script: Script, outcome: Any) -> None:
        """Run ``script`` inline from ``outcome`` (``None``: its start) until it ends or waits."""
        if future.done():  # cancelled: its script is closed
            return
        try:
            request, wire = script.send(outcome), self._wire
        except StopIteration as done:
            return future.set_result(done.value)
        except Exception as exc:  # the caller's, at its await
            return future.set_exception(exc)
        if request is None:  # a dial: the one task, held as the loop holds it weakly
            if wire is not None:
                wire.transport.close()
            self._dialing = asyncio.ensure_future(self._dial(future, script))
        elif wire is None or wire.transport.is_closing():
            self._step(future, script, (None, None))  # the site hung up: EOF, at once
        else:
            wire.transport.write(request)
            loop = future.get_loop()
            deadline = loop.call_at(loop.time() + self.timeout, wire.answer, None)
            wire.waiting = future, script, deadline

    async def _dial(self, future: asyncio.Future[Any], script: Script) -> None:
        connect = asyncio.get_running_loop().create_connection
        try:
            _, wire = await asyncio.wait_for(
                connect(lambda: _Wire(self), *self.address), timeout=self.timeout
            )
        except Exception as exc:  # a fault, or the caller's error: the script judges
            return self._step(future, script, (None, exc))
        if future.done():  # its call was cancelled meanwhile
            return wire.transport.close()
        self._wire = wire
        self._step(future, script, (None, None))

    async def close(self) -> None:
        """Release the connection; idempotent, and final.

        Waits for ``connection_lost``, so churn cannot pile up half-open
        sockets, and flags the proxy so a straggling RPC cannot re-dial.
        """
        self._closed = True
        if self._wire is not None:
            self._wire.transport.close()
            await self._wire.lost
            self._wire = None


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
