"""The site RPC surface, written once: frame codec, method table, proxy core.

* A frame is a 4-byte big-endian length prefix and a UTF-8 JSON body;
  payloads reuse :mod:`repro.net.message`, so the wire format and the
  accounting model describe the same objects.
* :data:`METHODS` holds one :class:`Method` row per RPC — the JSON codec
  of its argument and of its reply, and whether it may be re-issued.
  The server's :func:`dispatch` and both proxies are generated from it:
  a row plus the ``LocalSite`` method is the whole cost of a new RPC.
* :class:`SiteProxy` is a proxy minus its socket.  Its call script — the
  only place that decides dial, retry and give-up — yields ``None`` for
  a fresh connection or a request frame to exchange, and is sent back
  ``(reply body, fault)``.  :class:`~repro.net.sockets.RemoteSiteProxy`
  pumps it over a blocking socket,
  :class:`~repro.net.aio.AsyncRemoteSiteProxy` from asyncio callbacks.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional, Tuple, Type

from ..fault.errors import SiteTimeout
from .message import Quaternion, decode_tuple, encode_tuple

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import BatchProbeReply, LocalSite, ProbeReply

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_body",
    "Method",
    "METHODS",
    "dispatch",
    "SiteProxy",
]

_LENGTH = struct.Struct(">I")
HEADER_BYTES = _LENGTH.size

#: Upper bound on one frame's body.  The largest legitimate frame is a
#: ``ship_all`` reply for a million-tuple partition (at d = 3, ≈ 124
#: bytes of JSON per tuple: ≈ 124 MB); a length prefix announcing more
#: is a corrupt or hostile stream and is refused before any of its body
#: is read or buffered.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_frame(payload: Dict[str, Any]) -> bytes:
    raw = json.dumps(payload).encode("utf-8")
    return _LENGTH.pack(len(raw)) + raw


def _frame_length(header: bytes) -> int:
    """Decode a length prefix, refusing frames over :data:`MAX_FRAME_BYTES`.

    The refusal is a :class:`ConnectionError` — a retryable transport
    fault — because the stream position is lost: the connection must be
    dropped and re-dialed, never read further.
    """
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"frame header announces {length} bytes (limit {MAX_FRAME_BYTES}): "
            "corrupt or hostile stream"
        )
    return int(length)


def decode_body(body: bytes) -> Any:
    return json.loads(body.decode("utf-8"))


Codec = Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def _each(codec: Codec) -> Codec:
    return lambda items: [codec(item) for item in items]


def _optional(codec: Codec) -> Codec:
    return lambda value: None if value is None else codec(value)


def _fields(reply: Any) -> Dict[str, Any]:
    """A reply dataclass goes out as its fields, in declaration order."""
    return dict(vars(reply))


def _probe_reply(data: Dict[str, Any]) -> "ProbeReply":
    from ..distributed.site import ProbeReply

    return ProbeReply(
        factor=float(data["factor"]),
        pruned=int(data["pruned"]),
        queue_remaining=int(data["queue_remaining"]),
    )


def _batch_reply(data: Dict[str, Any]) -> "BatchProbeReply":
    from ..distributed.site import BatchProbeReply

    return BatchProbeReply(
        factors=[float(f) for f in data["factors"]],
        pruned=int(data["pruned"]),
        queue_remaining=int(data["queue_remaining"]),
    )


@dataclass(frozen=True)
class Method:
    """How one site RPC crosses the wire.

    ``field`` is the request key of the method's one argument (``None``:
    it takes none).  ``idempotent`` permits re-issuing after a dropped
    connection: safe for everything but ``pop_representative``, where
    re-popping after an ambiguous failure could skip a candidate.
    ``hosted`` is false for the one method the server answers itself.
    """

    field: Optional[str] = None
    encode_arg: Codec = _same
    decode_arg: Codec = _same
    encode_reply: Codec = _same
    decode_reply: Codec = _same
    idempotent: bool = True
    hosted: bool = True


METHODS: Dict[str, Method] = {
    "prepare": Method("threshold", decode_arg=float, decode_reply=int),
    "pop_representative": Method(
        encode_reply=_optional(Quaternion.to_dict),
        decode_reply=_optional(Quaternion.from_dict),
        idempotent=False,
    ),
    "probe_and_prune": Method("tuple", encode_tuple, decode_tuple, _fields, _probe_reply),
    "probe_and_prune_batch": Method(
        "tuples", _each(encode_tuple), _each(decode_tuple), _fields, _batch_reply
    ),
    "queue_size": Method(decode_reply=int),
    "ship_all": Method(encode_reply=_each(encode_tuple), decode_reply=_each(decode_tuple)),
    "ship_local_skyline": Method(
        "threshold",
        decode_arg=float,
        encode_reply=_each(Quaternion.to_dict),
        decode_reply=_each(Quaternion.from_dict),
    ),
    "ping": Method(
        encode_reply=lambda _: "pong", decode_reply=lambda r: r == "pong", hosted=False
    ),
}


def dispatch(site: "LocalSite", request: Dict[str, Any]) -> Any:
    """Serve one decoded request against ``site``; the JSON-ready result."""
    name = request["method"]
    row = METHODS.get(name)
    if row is None:
        raise ValueError(f"unknown RPC method {name!r}")
    if not row.hosted:
        return row.encode_reply(None)
    args = () if row.field is None else (row.decode_arg(request[row.field]),)
    return row.encode_reply(getattr(site, name)(*args))


#: What a pump sends back: the reply body (``None`` after a dial and on
#: a clean EOF) and the native exception its I/O raised, if any.
Outcome = Tuple[Optional[bytes], Optional[BaseException]]
Script = Generator[Optional[bytes], Outcome, Any]


class SiteProxy:
    """A SiteEndpoint speaking the TCP protocol — all of it but the I/O.

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

    A subclass supplies ``_pump(script)`` (run a script by doing the I/O
    it asks for), ``_TIMEOUT`` (how that I/O reports a missed deadline)
    and a ``close()`` that sets ``_closed`` and releases the connection.
    """

    _TIMEOUT: Type[BaseException]

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

    @property
    def reconnects(self) -> int:
        """Every re-dial after the first connection."""
        return max(0, self._dials - 1)

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name not in METHODS:
            raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")
        return functools.partial(self._call, name)

    def _pump(self, script: Script) -> Any:
        raise NotImplementedError

    def _call(self, method: str, *args: Any) -> Any:
        return self._pump(self._call_script(method, args))

    def _escalate(self, fault: Optional[BaseException], awaited: str) -> None:
        if isinstance(fault, self._TIMEOUT):
            self.timeouts += 1
            raise SiteTimeout(
                self.site_id, f"no {awaited} within {self.timeout}s"
            ) from fault

    def _dial_script(self) -> Generator[None, Outcome, Optional[BaseException]]:
        """Ask the pump for a connection; returns the fault it met, if any."""
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
                # unknown — also when the pump never answers (an await
                # cancelled mid-exchange): a late reply may be in flight.
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
