"""Benchmark-side tracing: spans around calls into each layer.

Nothing in ``src/`` is instrumented.  The benchmark wraps the objects
it hands to the program — site endpoints, shared hosts — and times the
calls that cross them.  A span is ``(name, round, op, start, end)``;
its parent is the op span of the same ``(round, op)``, so one op's
spans share an identifier.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanLog", "TimedEndpoint", "TimedHost", "Recorder"]

Recorder = Callable[[str, float, float], None]

#: Site RPC surface → span name.
_RPC_SPANS = {
    "prepare": "site.prepare",
    "pop_representative": "site.pop",
    "probe_and_prune": "site.probe",
    "probe_and_prune_batch": "site.probe_batch",
    "queue_size": "site.queue_size",
}

#: The recorder of the op the current task is submitting (the serving
#: layer builds a session's site views inside the client's ``submit``).
_current: "contextvars.ContextVar[Optional[Recorder]]" = contextvars.ContextVar(
    "perf_span_recorder", default=None
)


class SpanLog:
    """Every span of one traced run, reducible per op and per call."""

    def __init__(self) -> None:
        self.round = -1
        self.spans: List[Tuple[str, int, int, float, float]] = []

    def next_round(self) -> None:
        self.round += 1

    def recorder(self, op: int) -> Recorder:
        """A ``record(name, start, end)`` bound to one op of this round."""
        spans, rnd = self.spans, self.round

        def record(name: str, start: float, end: float) -> None:
            spans.append((name, rnd, op, start, end))

        return record

    def bind(self, op: int) -> Recorder:
        """:meth:`recorder`, also published to wrappers in this task."""
        record = self.recorder(op)
        _current.set(record)
        return record

    # ------------------------------------------------------------------
    # reductions: per-op best-of-rounds, like the end-to-end latencies
    # ------------------------------------------------------------------

    def _best_totals(self, name: str) -> Dict[int, float]:
        """Per op: the minimum over rounds of the op's summed span time."""
        totals: Dict[Tuple[int, int], float] = defaultdict(float)
        for span, rnd, op, start, end in self.spans:
            if span == name:
                totals[(rnd, op)] += end - start
        best: Dict[int, float] = {}
        for (_rnd, op), seconds in totals.items():
            best[op] = min(best.get(op, seconds), seconds)
        return best

    def calls(self, name: str) -> int:
        """Calls in the first traced round (counts repeat exactly)."""
        return sum(1 for span, rnd, *_ in self.spans if span == name and rnd == 0)

    def ms_per_op(self, name: str, ops: int) -> float:
        return sum(self._best_totals(name).values()) / ops * 1e3

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return sum(self._best_totals(name).values()) / calls * 1e6

    def calls_per_op(self, name: str, ops: int) -> float:
        return self.calls(name) / ops

    def dump(self, path: Path) -> None:
        doc = {
            "columns": ["name", "round", "op", "start", "end"],
            "parent": "the 'op' span with the same (round, op)",
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))


class TimedEndpoint:
    """A site endpoint whose RPCs each leave one span.

    Wraps sync endpoints (``LocalSite`` and its forks) and, with
    ``awaitable=True``, the asyncio TCP proxies.  Everything outside
    the RPC surface passes through, so fault wrappers and the replica
    manager see the site they expect.
    """

    def __init__(self, inner: Any, record: Recorder, awaitable: bool = False) -> None:
        self.inner = inner
        self.site_id = inner.site_id
        for method, span in _RPC_SPANS.items():
            target = getattr(inner, method, None)
            if target is not None:
                wrap = _timed_async if awaitable else _timed
                setattr(self, method, wrap(target, "net.rpc" if awaitable else span, record))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def _timed(call: Callable[..., Any], span: str, record: Recorder) -> Callable[..., Any]:
    def timed(*args: Any) -> Any:
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            record(span, start, time.perf_counter())

    return timed


def _timed_async(call: Callable[..., Any], span: str, record: Recorder) -> Callable[..., Any]:
    async def timed(*args: Any) -> Any:
        start = time.perf_counter()
        try:
            return await call(*args)
        finally:
            record(span, start, time.perf_counter())

    return timed


class TimedHost:
    """A ``SharedSiteHost`` whose forks are timed endpoints.

    Only a traced service is built over these (untraced rounds run the
    program unmodified).  Session views come from :meth:`view`, the
    replica book's standing replicas from :meth:`template`; both are
    recorded against the op whose ``submit`` is creating them.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.site_id = inner.site_id
        self.site_config = inner.site_config

    def view(self, preference: Any = None) -> Any:
        return _timed_fork(lambda: self.inner.view(preference))

    def template(self, preference: Any = None) -> Any:
        return _TimedTemplate(self.inner.template(preference))


class _TimedTemplate:
    def __init__(self, site: Any) -> None:
        self.site = site

    def fork(self) -> Any:
        return _timed_fork(self.site.fork)


def _timed_fork(fork: Callable[[], Any]) -> Any:
    record = _current.get()
    if record is None:  # a warm pass: no op to bill
        return fork()
    start = time.perf_counter()
    site = fork()
    record("site.fork", start, time.perf_counter())
    return TimedEndpoint(site, record)
