"""Wire-level message model.

The paper measures bandwidth as *the number of tuples transmitted*;
synchronisation messages and headers are explicitly excluded (§3.2).
Every communication between the coordinator and a site is therefore
described by a :class:`Message` that knows its kind, its direction, and
— the only number the cost model cares about — how many tuples it
carries.  Scalar probe replies and next-tuple requests carry zero.

Messages also know how to serialise themselves to JSON-compatible
dicts; the TCP transport (:mod:`repro.net.rpc`) sends exactly these
dicts, so the in-process and socket paths exercise one format.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.tuples import UncertainTuple

__all__ = [
    "MessageKind",
    "Message",
    "Quaternion",
    "encode_tuple",
    "decode_tuple",
]


class MessageKind(enum.Enum):
    """Every message type the DSUD/e-DSUD protocol exchanges."""

    PREPARE = "prepare"                  # H → S_i : threshold + preference
    PREPARE_REPLY = "prepare_reply"      # S_i → H : local skyline size
    NEXT_REQUEST = "next_request"        # H → S_i : send your next representative
    REPRESENTATIVE = "representative"    # S_i → H : one quaternion (1 tuple)
    EXHAUSTED = "exhausted"              # S_i → H : queue empty / below q
    FEEDBACK = "feedback"                # H → S_x : broadcast tuple (1 tuple)
    PROBE_REPLY = "probe_reply"          # S_x → H : P_sky(t, D_x) scalar
    RESULT = "result"                    # H → client: qualified skyline tuple
    UPDATE = "update"                    # S_i ↔ H : §5.4 maintenance traffic
    DATA = "data"                        # S_i → H : raw tuple shipment (baselines)
    CONTROL = "control"                  # anything else bookkeeping-ish
    REPLICA_SYNC = "replica_sync"        # S_i → R_i : tuple shipment to a replica
    DIGEST = "digest"                    # H ↔ R_i : anti-entropy partition digest
    FAILOVER_PROBE = "failover_probe"    # H → R_i : replayed broadcast after failover
    SUBSCRIBE = "subscribe"              # client ↔ H ↔ S_i : standing-query (de)registration
    DELTA = "delta"                      # S_i → H : stream digest (1 tuple per new candidate)
    NOTIFY = "notify"                    # H → client: ordered ResultDelta batch
    EXPIRE = "expire"                    # S_i → H : windowed candidate departed (key only)


#: Message kinds whose payload is a tuple and therefore costs bandwidth.
_TUPLE_BEARING = {
    MessageKind.REPRESENTATIVE,
    MessageKind.FEEDBACK,
    MessageKind.UPDATE,
    MessageKind.DATA,
    MessageKind.REPLICA_SYNC,
    MessageKind.FAILOVER_PROBE,
    MessageKind.DELTA,
}


@dataclass(frozen=True)
class Quaternion:
    """The ⟨i, j, P(t_ij), P_sky(t_ij, D_i)⟩ unit shipped to the server.

    ``site`` is the origin site index ``i``; ``tuple`` carries both the
    id ``j`` (its key) and the attribute values the server needs for
    dominance tests; ``local_probability`` is the own-site skyline
    probability that orders the priority queue ``L``.
    """

    site: int
    tuple: UncertainTuple
    local_probability: float

    @property
    def key(self) -> int:
        return self.tuple.key

    @property
    def existential(self) -> float:
        return self.tuple.probability

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "tuple": encode_tuple(self.tuple),
            "local_probability": self.local_probability,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Quaternion":
        return cls(
            site=int(data["site"]),
            tuple=decode_tuple(data["tuple"]),
            local_probability=float(data["local_probability"]),
        )


@dataclass(frozen=True)
class Message:
    """One directed protocol message with its bandwidth cost."""

    kind: MessageKind
    sender: str
    receiver: str
    payload: Any = None
    tuple_count: int = 0

    @classmethod
    def bearing(
        cls,
        kind: MessageKind,
        sender: str,
        receiver: str,
        payload: Any,
        tuple_count: Optional[int] = None,
    ) -> "Message":
        """Build a message, deriving the tuple count from its kind.

        ``tuple_count`` overrides the per-kind default for batched
        messages (a FEEDBACK carrying k quaternions bears k tuples —
        the paper's §3.2 metric counts tuples, not envelopes).
        """
        if tuple_count is None:
            tuple_count = 1 if kind in _TUPLE_BEARING else 0
        return cls(
            kind=kind,
            sender=sender,
            receiver=receiver,
            payload=payload,
            tuple_count=tuple_count,
        )

    def size_bytes(self, dimensionality: int = 3) -> int:
        """A wire-size estimate for capacity planning.

        The paper's metric stays tuple counts; this translation —
        8 bytes per attribute and per probability, 8 for the key, a
        16-byte envelope per message — lets the same books be read in
        bytes when sizing real links.
        """
        envelope = 16
        per_tuple = 8 * (dimensionality + 2)
        return envelope + self.tuple_count * per_tuple

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind.value,
            "sender": self.sender,
            "receiver": self.receiver,
            "payload": _encode_payload(self.payload),
            "tuple_count": self.tuple_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Message":
        return cls(
            kind=MessageKind(data["kind"]),
            sender=data["sender"],
            receiver=data["receiver"],
            payload=_decode_payload(data["payload"]),
            tuple_count=int(data["tuple_count"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, raw: str) -> "Message":
        return cls.from_dict(json.loads(raw))


def encode_tuple(t: UncertainTuple) -> Dict[str, Any]:
    return {"key": t.key, "values": list(t.values), "probability": t.probability}


def decode_tuple(data: Dict[str, Any]) -> UncertainTuple:
    return UncertainTuple(
        key=int(data["key"]),
        values=tuple(float(v) for v in data["values"]),
        probability=float(data["probability"]),
    )


def _encode_payload(payload: Any) -> Any:
    if payload is None:
        return None
    if isinstance(payload, UncertainTuple):
        return {"__type__": "tuple", **encode_tuple(payload)}
    if isinstance(payload, Quaternion):
        return {"__type__": "quaternion", **payload.to_dict()}
    if isinstance(payload, dict):
        return {"__type__": "dict", "data": {k: _encode_payload(v) for k, v in payload.items()}}
    if isinstance(payload, (list, tuple)):
        return {"__type__": "list", "data": [_encode_payload(v) for v in payload]}
    return payload


def _decode_payload(payload: Any) -> Any:
    if not isinstance(payload, dict) or "__type__" not in payload:
        return payload
    kind = payload["__type__"]
    if kind == "tuple":
        return decode_tuple(payload)
    if kind == "quaternion":
        return Quaternion.from_dict(payload)
    if kind == "dict":
        return {k: _decode_payload(v) for k, v in payload["data"].items()}
    if kind == "list":
        return [_decode_payload(v) for v in payload["data"]]
    raise ValueError(f"unknown payload tag {kind!r}")
