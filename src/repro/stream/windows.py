"""Sliding-window policies for uncertain streams.

Every site of the continuous-query subsystem ingests an append-only
stream of :class:`~repro.core.tuples.UncertainTuple` arrivals and keeps
only the tuples its *window* considers live.  Three window kinds cover
the shapes the stream literature (and the edge pre-filtering paper the
subsystem follows) uses:

* :class:`CountWindow` — "the last ``capacity`` readings": a FIFO of
  fixed cardinality, stamps ignored.
* :class:`SlidingTimeWindow` — "the last ``span`` seconds": a tuple is
  live while ``now - stamp < span``; time advances with every arrival
  and explicitly via :meth:`~Window.advance`.
* :class:`TumblingTimeWindow` — contiguous ``span``-wide epochs; when a
  stamp crosses an epoch boundary the whole previous window flushes.

All windows preserve *arrival order* among their live tuples.  That is
load-bearing, not cosmetic: a site's standing engine stores the window
contents in arrival order, which is exactly the order a fresh
:class:`~repro.distributed.site.LocalSite` built over the same live
tuples would use — the foundation of the subsystem's bit-identical
epoch-equivalence contract (see docs/streaming.md).

Stamps must be non-decreasing per window; a regressing stamp raises
rather than silently reordering history.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.tuples import UncertainTuple

__all__ = [
    "Window",
    "CountWindow",
    "SlidingTimeWindow",
    "TumblingTimeWindow",
    "WINDOW_KINDS",
    "make_window",
]


class Window:
    """Base class: arrival-ordered live set with eviction on push/advance."""

    def __init__(self) -> None:
        self._live: Deque[Tuple[float, UncertainTuple]] = deque()
        self._clock: Optional[float] = None

    def _check_stamp(self, stamp: float) -> None:
        if self._clock is not None and stamp < self._clock:
            raise ValueError(
                f"stamp {stamp!r} regresses behind {self._clock!r}; "
                f"stream stamps must be non-decreasing"
            )
        self._clock = stamp

    def push(self, t: UncertainTuple, stamp: float) -> List[UncertainTuple]:
        """Admit one arrival; returns the tuples it evicted (oldest first).

        An arrival whose dimensionality differs from the live tuples' is
        refused before anything changes — arrivals come from outside.
        """
        if self._live and len(t.values) != len(self._live[-1][1].values):
            raise ValueError(f"arrival {t.key}: dimensionality differs from the live window's")
        self._check_stamp(stamp)
        evicted = self._evict(stamp)
        self._live.append((stamp, t))
        return evicted

    def advance(self, now: float) -> List[UncertainTuple]:
        """Move time forward without an arrival; returns the expired tuples."""
        self._check_stamp(now)
        return self._evict(now)

    def live(self) -> List[UncertainTuple]:
        """The currently windowed tuples, in arrival order."""
        return [t for _stamp, t in self._live]

    def __len__(self) -> int:
        return len(self._live)

    def _evict(self, now: float) -> List[UncertainTuple]:
        raise NotImplementedError


class CountWindow(Window):
    """The last ``capacity`` arrivals; stamps are bookkeeping only."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        super().__init__()
        self.capacity = capacity

    def advance(self, now: float) -> List[UncertainTuple]:
        """Count windows only churn on arrivals; time passing is free."""
        self._check_stamp(now)
        return []

    def _evict(self, now: float) -> List[UncertainTuple]:
        out: List[UncertainTuple] = []
        while len(self._live) >= self.capacity:
            out.append(self._live.popleft()[1])
        return out


class SlidingTimeWindow(Window):
    """Tuples stay live while ``now - stamp < span``."""

    def __init__(self, span: float) -> None:
        if span <= 0:
            raise ValueError(f"span must be positive, got {span!r}")
        super().__init__()
        self.span = span

    def _evict(self, now: float) -> List[UncertainTuple]:
        out: List[UncertainTuple] = []
        horizon = now - self.span
        while self._live and self._live[0][0] <= horizon:
            out.append(self._live.popleft()[1])
        return out


class TumblingTimeWindow(Window):
    """Contiguous ``span``-wide epochs; a boundary crossing flushes all."""

    def __init__(self, span: float) -> None:
        if span <= 0:
            raise ValueError(f"span must be positive, got {span!r}")
        super().__init__()
        self.span = span
        self._bucket: Optional[int] = None

    def _evict(self, now: float) -> List[UncertainTuple]:
        bucket = int(now // self.span)
        if self._bucket is None:
            self._bucket = bucket
            return []
        if bucket == self._bucket:
            return []
        self._bucket = bucket
        out = [t for _stamp, t in self._live]
        self._live.clear()
        return out


#: Window kind name -> constructor taking the single size/span knob.
WINDOW_KINDS = {
    "count": CountWindow,
    "sliding-time": SlidingTimeWindow,
    "tumbling-time": TumblingTimeWindow,
}


def make_window(kind: str, size: float) -> Window:
    """Build a window by name: ``count`` takes a cardinality, the time
    kinds take a span."""
    if kind not in WINDOW_KINDS:
        raise ValueError(
            f"unknown window kind {kind!r}; expected one of {sorted(WINDOW_KINDS)}"
        )
    if kind == "count":
        return CountWindow(int(size))
    return WINDOW_KINDS[kind](size)  # type: ignore[no-any-return,operator]
