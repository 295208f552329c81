"""Bandwidth and latency accounting.

All the paper's efficiency figures plot *tuples transmitted over the
network*; its progressiveness figures add CPU runtime.  This module
keeps those books:

* :class:`NetworkStats` counts messages and tuple-transmissions by
  :class:`~repro.net.message.MessageKind` and direction, and — given a
  :class:`LatencyModel` — accumulates a simulated wall-clock in which
  broadcasts to many sites proceed in parallel (one round-trip of
  latency, summed serialisation time).
* :class:`ProgressEvent` / :class:`ProgressLog` record the timeline of
  reported skyline results (the x-axis of Figs. 12–13) against
  cumulative bandwidth, CPU time, and simulated network time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .message import MessageKind

__all__ = ["LatencyModel", "NetworkStats", "ProgressEvent", "ProgressLog"]

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

#: ``by_kind`` label → tuples per message by default.  ``bill`` reads the label as
#: ``kind._value_``: ``kind.value`` and ``Enum.__hash__`` are Python-level calls.
_DEFAULT_TUPLES = {kind.value: int(kind in _TUPLE_BEARING) for kind in MessageKind}


@dataclass(frozen=True)
class LatencyModel:
    """A simple wide-area cost model for the simulated clock.

    ``round_latency`` is the one-way latency of a communication round;
    ``per_tuple`` the serialisation/transfer cost of each tuple in it.
    Defaults sketch a WAN: 25 ms rounds, 0.1 ms per tuple.
    """

    round_latency: float = 0.025
    per_tuple: float = 0.0001

    def round_cost(self, tuples: int) -> float:
        return self.round_latency + self.per_tuple * tuples


@dataclass
class NetworkStats:
    """Counters for one algorithm run."""

    latency_model: LatencyModel = field(default_factory=LatencyModel)
    messages: int = 0
    tuples_transmitted: int = 0
    tuples_to_server: int = 0
    tuples_from_server: int = 0
    rounds: int = 0
    simulated_time: float = 0.0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Fault-tolerance books (all zero on a healthy run): RPC attempts
    #: that failed, retries issued (with their cumulative backoff),
    #: sites declared DOWN / reintegrated, and the observed
    #: coordinator→site round-trip wall clock (``rpc_seconds`` is a
    #: sum of per-call waits: when the awaiting pump overlaps a
    #: fan-out's calls it exceeds the time that actually elapsed).
    rpc_failures: int = 0
    rpc_retries: int = 0
    backoff_seconds: float = 0.0
    sites_lost: int = 0
    sites_recovered: int = 0
    rpc_calls: int = 0
    rpc_seconds: float = 0.0
    #: Replication books: queries re-targeted from a dead primary to a
    #: live replica, and primaries resumed as target after re-sync.
    failovers: int = 0
    failbacks: int = 0

    def bill(
        self,
        kind: MessageKind,
        sender: str,
        receiver: str,
        tuples: Optional[int] = None,
        messages: int = 1,
    ) -> None:
        """Account ``messages`` messages of one kind (direction from the receiver).

        ``tuples``, their total, overrides the default — 1 per message of
        a tuple-bearing kind, else 0 — for batched messages: a FEEDBACK
        carrying k quaternions bears k tuples, because the paper's §3.2
        metric counts tuples, not envelopes.  One call for a round's
        legs of one kind keeps the books of one call per message.  The
        sender is for the reader; only the receiver decides the direction.
        """
        label = kind._value_
        if tuples is None:
            tuples = _DEFAULT_TUPLES[label] * messages
        self.messages += messages
        self.by_kind[label] = self.by_kind.get(label, 0) + messages
        if tuples:
            self.tuples_transmitted += tuples
            if receiver == "server":
                self.tuples_to_server += tuples
            else:
                self.tuples_from_server += tuples

    def record_round(self, tuples_in_round: int = 0) -> None:
        """Advance the simulated clock by one parallel communication round."""
        self.rounds += 1
        self.simulated_time += self.latency_model.round_cost(tuples_in_round)

    def snapshot(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "by_kind": dict(self.by_kind),
            "tuples_transmitted": self.tuples_transmitted,
            "tuples_to_server": self.tuples_to_server,
            "tuples_from_server": self.tuples_from_server,
            "rounds": self.rounds,
            "simulated_time": self.simulated_time,
            "rpc_failures": self.rpc_failures,
            "rpc_retries": self.rpc_retries,
            "backoff_seconds": self.backoff_seconds,
            "sites_lost": self.sites_lost,
            "sites_recovered": self.sites_recovered,
            "failovers": self.failovers,
            "failbacks": self.failbacks,
        }


@dataclass(frozen=True)
class ProgressEvent:
    """One reported skyline result and the cost paid up to that moment."""

    result_index: int
    key: int
    global_probability: float
    tuples_transmitted: int
    cpu_seconds: float
    simulated_time: float


@dataclass
class ProgressLog:
    """The progressiveness timeline of one run (Figs. 12–13 raw data)."""

    events: List[ProgressEvent] = field(default_factory=list)
    _cpu_start: float = field(default_factory=time.process_time)

    def restart_clock(self) -> None:
        self._cpu_start = time.process_time()

    def cpu_elapsed(self) -> float:
        return time.process_time() - self._cpu_start

    def report(self, key: int, probability: float, stats: NetworkStats) -> None:
        self.events.append(
            ProgressEvent(
                result_index=len(self.events) + 1,
                key=key,
                global_probability=probability,
                tuples_transmitted=stats.tuples_transmitted,
                cpu_seconds=self.cpu_elapsed(),
                simulated_time=stats.simulated_time,
            )
        )

    def bandwidth_series(self) -> List[int]:
        """Cumulative tuples at each reported result (Figs. 12a/12b)."""
        return [e.tuples_transmitted for e in self.events]

    def cpu_series(self) -> List[float]:
        """Cumulative CPU seconds at each reported result (Figs. 12c/12d)."""
        return [e.cpu_seconds for e in self.events]

    def __len__(self) -> int:
        return len(self.events)
