"""The asyncio transport: overlapping site RPCs without threads.

The serving layer (:mod:`repro.serve`) multiplexes many progressive
queries on one event loop, so its coordinator→site RPCs must not block
that loop.  This module provides the awaitable endpoints:

* :class:`AsyncLocalEndpoint` — adapts any *sync* endpoint (an
  in-process :class:`~repro.distributed.site.LocalSite`, a fork, a
  fault-injecting wrapper) by yielding to the event loop before each
  call, so co-scheduled sessions interleave at RPC granularity even
  when the work itself is in-process.
* :class:`AsyncRemoteSiteProxy` — the TCP client: a call script (the
  frames, timeouts and retry rules of :mod:`repro.net.rpc`'s method
  table) stepped from the callbacks of one asyncio Protocol per
  connection.  A call is a future, its request on the wire when it
  returns, and no exchange costs a task — so RPCs to *distinct* sites
  genuinely overlap in one thread.

Sites are served by :class:`~repro.net.sockets.SiteServer`, hosted in
threads or in processes; both ways hand out the ``(site_id, (host,
port))`` addresses that :func:`connect_async_sites` dials.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Awaitable, Callable, Generator, List, Optional, Sequence, Tuple, cast

from ..fault.errors import SiteTimeout
from .rpc import HEADER_BYTES, METHODS, Method, _frame_length, decode_body, encode_frame
from .transport import EndpointInterceptor

__all__ = [
    "AsyncLocalEndpoint",
    "AsyncRemoteSiteProxy",
    "connect_async_sites",
]

#: What a call script is sent back: the reply body (``None`` after a
#: dial and on a clean EOF) and the native exception its I/O raised, if any.
Outcome = Tuple[Optional[bytes], Optional[BaseException]]
Script = Generator[Optional[bytes], Outcome, Any]


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


class AsyncRemoteSiteProxy:
    """A SiteEndpoint speaking the TCP protocol.

    Every method returns an :class:`asyncio.Future`; one call at a time.
    The constructor does not dial — use :meth:`connect`, or let the
    first RPC dial.

    ``timeout`` is a *real* deadline on connect and on each
    request/response exchange: a site that accepts the connection but
    never answers surfaces as :class:`~repro.fault.errors.SiteTimeout`
    instead of hanging the query.  Timeouts are never retried here —
    whether the lost answer is worth another round trip is the
    coordinator's :class:`RetryPolicy` decision — and since a late
    reply may still be in flight, the next call re-dials first.

    ``retries`` is transparent reconnection: after a dropped connection
    (transient network fault, site restart behind the same address) an
    *idempotent* RPC is re-issued on a fresh dial up to that many
    times; a non-idempotent one surfaces its ambiguous drop as
    :class:`ConnectionError` for the coordinator to handle.

    Each call is a script — the only place that decides dial, retry and
    give-up — that yields ``None`` for a fresh connection or a request
    frame to exchange, and is sent back an :data:`Outcome`.
    """

    _wire: Optional[_Wire] = None

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
        self.timeouts = 0
        self._dials = 0
        self._needs_redial = True  # no connection yet
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
        await proxy._pump(proxy._connect_script())
        return proxy

    @property
    def reconnects(self) -> int:
        """Every re-dial after the first connection."""
        return max(0, self._dials - 1)

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name not in METHODS:
            raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")
        return functools.partial(self._call, name)

    def _call(self, method: str, *args: Any) -> asyncio.Future[Any]:
        return self._pump(self._call_script(method, args))

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

    def _escalate(self, fault: Optional[BaseException], awaited: str) -> None:
        if isinstance(fault, asyncio.TimeoutError):
            self.timeouts += 1
            raise SiteTimeout(
                self.site_id, f"no {awaited} within {self.timeout}s"
            ) from fault

    def _dial_script(self) -> Generator[None, Outcome, Optional[BaseException]]:
        """Ask for a connection; returns the fault it met, if any."""
        _, fault = yield None
        self._escalate(fault, "connection")
        if fault is None:
            self._dials += 1
            self._needs_redial = False
        return fault

    def _connect_script(self) -> Script:
        """The first connection: its fault is the caller's to see."""
        fault = yield from self._dial_script()
        if fault is not None:
            raise fault

    def _call_script(self, method: str, args: Tuple[Any, ...]) -> Script:
        """One RPC: the only loop that decides retry and re-dial."""
        # A name outside the table goes out bare: the server is the
        # authority on what it serves, and answers with an error reply.
        row = METHODS.get(method) or Method()
        if len(args) != (row.field is not None):
            raise TypeError(f"{method}() got {len(args)} positional argument(s)")
        request = {"method": method}
        if row.field is not None:
            request[row.field] = row.encode_arg(args[0])
        frame = encode_frame(request)
        fault: Optional[BaseException] = None
        for _ in range(1 + (self.retries if row.idempotent else 0)):
            if self._closed:
                # A closed proxy must never silently reconnect: its
                # owner released the socket, and a late RPC re-dialing
                # here would leak a fresh connection past it.
                raise ConnectionError(f"proxy for site {self.site_id} is closed")
            body: Optional[bytes] = None
            fault = (yield from self._dial_script()) if self._needs_redial else None
            if fault is None:
                # Until a whole reply is read the stream position is
                # unknown — also when the script is never answered (an
                # await cancelled mid-exchange): a late reply may be in flight.
                self._needs_redial = True
                body, fault = yield frame
            if body is not None:
                self._needs_redial = False
                response = decode_body(body)
                if not response["ok"]:
                    # An application error is authoritative — no retry.
                    raise RuntimeError(
                        f"site {self.site_id} RPC failed: {response['error']}"
                    )
                return row.decode_reply(response["result"])
            self._escalate(fault, f"answer to {method!r}")
        raise fault or ConnectionError(f"site {self.site_id} closed the connection")

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
