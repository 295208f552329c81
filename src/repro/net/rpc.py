"""The site RPC surface, written once: frame codec and method table.

* A frame is a 4-byte big-endian length prefix and a UTF-8 JSON body;
  payloads reuse :mod:`repro.net.message`, so the wire format and the
  accounting model describe the same objects.
* :data:`METHODS` holds one :class:`Method` row per RPC — the JSON codec
  of its argument and of its reply, and whether it may be re-issued.
  The server's :func:`dispatch` and the client,
  :class:`~repro.net.aio.AsyncRemoteSiteProxy`, are generated from it:
  a row plus the ``LocalSite`` method is the whole cost of a new RPC.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

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
