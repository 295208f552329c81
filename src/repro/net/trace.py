"""Protocol tracing: persistent, analyzable records of a query run.

Debugging a distributed algorithm means asking "what was actually said,
in what order?".  A :class:`ProtocolTracer` wraps any set of site
endpoints, timestamps every RPC, and can dump the conversation as
JSON-lines for offline analysis — the operational sibling of the
in-memory :class:`~repro.net.transport.RecordingEndpoint` the tests
use.  :func:`summarize_trace` turns a trace back into the questions one
actually asks: calls per site, per method, tuples moved, and the
first/last activity of each participant.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..core.tuples import UncertainTuple
from .message import Quaternion
from .transport import SiteEndpoint

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import BatchProbeReply, ProbeReply

__all__ = ["TraceRecord", "ProtocolTracer", "load_trace", "summarize_trace"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped RPC."""

    sequence: int
    timestamp: float
    site_id: int
    method: str
    detail: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "site_id": self.site_id,
            "method": self.method,
            "detail": self.detail,
        }


class _TracedEndpoint:
    """One endpoint's tracing shim (shares the tracer's journal)."""

    def __init__(self, inner: SiteEndpoint, tracer: "ProtocolTracer") -> None:
        self._inner = inner
        self._tracer = tracer
        self.site_id = inner.site_id

    def prepare(self, threshold: float) -> int:
        size = self._inner.prepare(threshold)
        self._tracer._record(self.site_id, "prepare",
                             {"threshold": threshold, "local_skyline": size})
        return size

    def pop_representative(self) -> Optional[Quaternion]:
        quaternion = self._inner.pop_representative()
        detail: Dict[str, Any] = {"exhausted": quaternion is None}
        if quaternion is not None:
            detail["key"] = quaternion.key
            detail["local_probability"] = quaternion.local_probability
        self._tracer._record(self.site_id, "pop_representative", detail)
        return quaternion

    def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        reply = self._inner.probe_and_prune(t)
        self._tracer._record(
            self.site_id,
            "probe_and_prune",
            {
                "key": t.key,
                "factor": reply.factor,
                "pruned": reply.pruned,
                "queue_remaining": reply.queue_remaining,
            },
        )
        return reply

    def probe_and_prune_batch(self, ts: Sequence[UncertainTuple]) -> "BatchProbeReply":
        # Explicit, not via __getattr__: a batched round handed straight
        # to the inner endpoint would leave no record at all.
        reply = self._inner.probe_and_prune_batch(ts)
        self._tracer._record(
            self.site_id,
            "probe_and_prune_batch",
            {
                "keys": [t.key for t in ts],
                "factors": list(reply.factors),
                "pruned": reply.pruned,
                "queue_remaining": reply.queue_remaining,
            },
        )
        return reply

    def queue_size(self) -> int:
        size = self._inner.queue_size()
        self._tracer._record(self.site_id, "queue_size", {"size": size})
        return size

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class ProtocolTracer:
    """Wrap endpoints, journal every call, dump/load as JSONL."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._start = time.perf_counter()

    def wrap(self, sites: Sequence[SiteEndpoint]) -> List[_TracedEndpoint]:
        return [_TracedEndpoint(site, self) for site in sites]

    def _record(self, site_id: int, method: str, detail: Dict[str, Any]) -> None:
        self.records.append(
            TraceRecord(
                sequence=len(self.records),
                timestamp=time.perf_counter() - self._start,
                site_id=site_id,
                method=method,
                detail=detail,
            )
        )

    def save(self, path: PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict()))
                fh.write("\n")

    def __len__(self) -> int:
        return len(self.records)


def load_trace(path: PathLike) -> List[TraceRecord]:
    out: List[TraceRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            out.append(
                TraceRecord(
                    sequence=int(data["sequence"]),
                    timestamp=float(data["timestamp"]),
                    site_id=int(data["site_id"]),
                    method=str(data["method"]),
                    detail=dict(data["detail"]),
                )
            )
    return out


def summarize_trace(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Roll a trace up into the usual debugging questions."""
    by_method: Dict[str, int] = {}
    by_site: Dict[int, int] = {}
    pruned = 0
    fetched = 0
    delivered = 0
    for record in records:
        by_method[record.method] = by_method.get(record.method, 0) + 1
        by_site[record.site_id] = by_site.get(record.site_id, 0) + 1
        if record.method in ("probe_and_prune", "probe_and_prune_batch"):
            # A batched probe delivers one feedback tuple per key.
            keys = record.detail.get("keys")
            delivered += 1 if keys is None else len(keys)
            pruned += int(record.detail.get("pruned", 0))
        if record.method == "pop_representative" and not record.detail.get(
            "exhausted", False
        ):
            fetched += 1
    return {
        "calls": len(records),
        "by_method": by_method,
        "by_site": by_site,
        "tuples_fetched": fetched,
        "broadcast_deliveries": delivered,
        "candidates_pruned_at_sites": pruned,
        "duration": records[-1].timestamp - records[0].timestamp if records else 0.0,
    }
