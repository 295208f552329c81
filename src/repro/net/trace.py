"""Protocol tracing: persistent, analyzable records of a query run.

Debugging a distributed algorithm means asking "what was actually said,
in what order?".  A :class:`ProtocolTracer` wraps any set of site
endpoints — in-process or remote, sync or awaitable — timestamps every
RPC once its reply is in, and can dump the conversation as
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union, cast

from .message import Quaternion
from .transport import EndpointInterceptor, SiteEndpoint

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


def _reply_detail(reply: Any) -> Dict[str, Any]:
    return {"pruned": reply.pruned, "queue_remaining": reply.queue_remaining}


def _pop_detail(args: Tuple[Any, ...], quaternion: Optional[Quaternion]) -> Dict[str, Any]:
    if quaternion is None:
        return {"exhausted": True}
    return {
        "exhausted": False,
        "key": quaternion.key,
        "local_probability": quaternion.local_probability,
    }


#: What a trace record says about each call: ``(args, result) → detail``.
_DETAIL: Dict[str, Callable[[Tuple[Any, ...], Any], Dict[str, Any]]] = {
    "prepare": lambda args, size: {"threshold": args[0], "local_skyline": size},
    "pop_representative": _pop_detail,
    "probe_and_prune": lambda args, reply: {
        "key": args[0].key,
        "factor": reply.factor,
        **_reply_detail(reply),
    },
    "probe_and_prune_batch": lambda args, reply: {
        "keys": [t.key for t in args[0]],
        "factors": list(reply.factors),
        **_reply_detail(reply),
    },
    "queue_size": lambda args, size: {"size": size},
}


class _TracedEndpoint(EndpointInterceptor):
    """One endpoint's tracing shim (shares the tracer's journal)."""

    def __init__(self, inner: SiteEndpoint, tracer: "ProtocolTracer") -> None:
        super().__init__(inner)
        self._tracer = tracer

    def after(self, method: str, args: Tuple[Any, ...], result: Any) -> None:
        self._tracer._record(self.site_id, method, _DETAIL[method](args, result))


class ProtocolTracer:
    """Wrap endpoints, journal every call, dump/load as JSONL."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._start = time.perf_counter()

    def wrap(self, sites: Sequence[SiteEndpoint]) -> List[SiteEndpoint]:
        """Tracing shims over ``sites`` (sync or awaitable alike)."""
        return [cast(SiteEndpoint, _TracedEndpoint(site, self)) for site in sites]

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
