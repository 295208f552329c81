"""Protocol message kinds and the tuple codecs the wire uses.

The paper measures bandwidth as *the number of tuples transmitted*;
synchronisation messages and headers are explicitly excluded (§3.2).
Every communication between the coordinator and a site is billed as
one :class:`MessageKind` (:meth:`~repro.net.stats.NetworkStats.bill`
knows how many tuples each kind carries).  Scalar probe replies and
next-tuple requests carry zero.

:class:`Quaternion` and :func:`encode_tuple` / :func:`decode_tuple`
are the JSON codecs of the TCP transport's method table
(:data:`repro.net.rpc.METHODS`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

from ..core.tuples import UncertainTuple

__all__ = [
    "MessageKind",
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
    DIGEST = "digest"                    # H ↔ R_i : failback resync partition digest
    FAILOVER_PROBE = "failover_probe"    # H → R_i : replayed broadcast after failover
    SUBSCRIBE = "subscribe"              # client ↔ H ↔ S_i : standing-query (de)registration
    DELTA = "delta"                      # S_i → H : stream digest (1 tuple per new candidate)
    NOTIFY = "notify"                    # H → client: ordered ResultDelta batch
    EXPIRE = "expire"                    # S_i → H : windowed candidate departed (key only)


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


def encode_tuple(t: UncertainTuple) -> Dict[str, Any]:
    return {"key": t.key, "values": list(t.values), "probability": t.probability}


def decode_tuple(data: Dict[str, Any]) -> UncertainTuple:
    return UncertainTuple(
        key=int(data["key"]),
        values=tuple(float(v) for v in data["values"]),
        probability=float(data["probability"]),
    )

