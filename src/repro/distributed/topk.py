"""Order-correct top-k emission (``limit=``) for progressive coordinators.

:class:`TopKBuffer` sits between a coordinator's resolved candidates
and its client-facing ``report``: it holds qualified tuples until they
are provably next-best, re-scores entries whose probability is still a
Corollary-1 bound through their live
:class:`~repro.fault.coverage.TupleCoverage`, and stops the query at k
emitted results.  It knows nothing of sites or scripts — the
coordinator supplies the cap on everything unresolved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.tuples import UncertainTuple
from ..fault.coverage import TupleCoverage

__all__ = ["TopKBuffer", "BufferedResult"]

#: The emission callback drains hand results to (Coordinator.report).
ReportFn = Callable[[UncertainTuple, float], object]


@dataclass
class BufferedResult:
    """One resolved, qualified tuple waiting inside a :class:`TopKBuffer`.

    ``coverage`` is the *live* :class:`TupleCoverage` the broadcast
    opened — shared with the coordinator's tracker, so a recovered
    site's re-probe tightens :attr:`effective` in place instead of the
    entry staying frozen at its offer-time probability.  ``origin`` and
    ``seq`` namespace the ordering tiebreak: two tuples that share a
    key across sites never fall through to comparing
    :class:`UncertainTuple` objects.
    """

    tuple: UncertainTuple
    probability: float                        # offer-time global probability
    coverage: Optional[TupleCoverage] = None  # live Corollary-1 books
    origin: int = -1
    seq: int = 0

    @property
    def effective(self) -> float:
        """The current probability: exact, or the live Corollary-1 bound."""
        if self.coverage is not None:
            return self.coverage.upper_bound
        return self.probability

    @property
    def exact(self) -> bool:
        """True when every site's Eq.-9 factor is folded in (Lemma 1)."""
        return self.coverage is None or self.coverage.exact

    def sort_key(self) -> Tuple[float, int, int, int]:
        """Deterministic total order: probability desc, then (key, origin)."""
        return (-self.effective, self.tuple.key, self.origin, self.seq)


class TopKBuffer:
    """Order-correct top-k emission for progressive coordinators.

    The iteration policies resolve candidates in *bound* order, not in
    exact-probability order, so under a result limit a resolved tuple
    may only be emitted once nothing still unresolved could beat it.
    The buffer holds resolved qualified tuples and releases one only
    when its probability is **exact** (all Eq.-9 factors present) and
    **strictly** greater than both the caller-supplied cap on
    everything unresolved and every other buffered entry's Corollary-1
    bound; k emitted results end the query — that early stop is the
    whole bandwidth win of ``limit=``.

    Emission rules, deterministic by construction:

    * **Tie rule** — a probability merely *equal* to the cap is held:
      an unresolved candidate could still tie, and with equal exact
      probabilities the ``(key, origin)`` order must decide.  Once the
      tied candidates are all buffered, ties emit in ascending
      ``(key, origin)`` order.
    * **Degraded entries** — an entry whose probability is a mere
      Corollary-1 upper bound (a site was DOWN during its broadcast)
      is never released by :meth:`drain`; it re-scores in place as
      recovered sites are re-probed, and is retracted silently if its
      bound sinks below ``threshold``.  Only :meth:`flush` (natural
      termination, nothing left to resolve or recover) emits inexact
      entries, in bound order — the coordinator then surfaces them via
      ``CoverageReport.degraded``.
    * **Bounded memory** — at most ``limit`` pending entries whenever
      everything buffered is exact; an entry is dropped only when
      ``limit - emitted`` *exact* entries provably outrank it forever
      (exact values are final and a bound only ever decreases, so the
      order cannot invert).
    """

    def __init__(self, limit: int, threshold: float = 0.0) -> None:
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit!r}")
        self.limit = limit
        self.threshold = threshold
        self.emitted = 0
        self._entries: List[BufferedResult] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Pending entries that could still be emitted."""
        return self.limit - self.emitted

    def offer(
        self,
        t: UncertainTuple,
        probability: float,
        coverage: Optional[TupleCoverage] = None,
    ) -> None:
        """Buffer one resolved qualified tuple (with its live coverage)."""
        self._entries.append(
            BufferedResult(
                tuple=t,
                probability=probability,
                coverage=coverage,
                origin=coverage.origin if coverage is not None else -1,
                seq=next(self._seq),
            )
        )
        self._entries.sort(key=BufferedResult.sort_key)
        self._trim()

    def _trim(self) -> None:
        """Drop tail entries provably outside the remaining capacity.

        Sound only when the ``capacity`` best entries are all exact:
        their values are final, and the tail's bound can only decrease,
        so the tail can never climb back in.  While any leading entry
        is inexact everything is kept — its bound may tighten below the
        tail.
        """
        while len(self._entries) > self.capacity and all(
            entry.exact for entry in self._entries[: self.capacity]
        ):
            self._entries.pop()

    def _prune_retracted(self) -> None:
        """Drop entries a re-probe has pushed below the threshold.

        They were never emitted, so the progressive guarantee holds:
        tightening retracts *buffered* state, never a reported tuple.
        """
        if self.threshold > 0.0:
            self._entries = [
                e for e in self._entries if e.effective >= self.threshold
            ]

    def inexact_entries(self) -> List[BufferedResult]:
        """Pending entries whose probability is still a mere upper bound."""
        return [e for e in self._entries if not e.exact]

    def inexact_cap(self) -> float:
        """The largest Corollary-1 bound among pending inexact entries."""
        return max(
            (e.effective for e in self._entries if not e.exact), default=0.0
        )

    def drain(self, remaining_cap: float, report: ReportFn) -> bool:
        """Emit everything provably next-best; True once the limit is hit.

        An entry is emittable only when it is exact and its probability
        strictly beats ``remaining_cap`` *and* every other pending
        entry's bound — see the class docstring for the tie and
        degraded-entry rules.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries[0]
            if not head.exact:
                break
            if head.effective <= max(remaining_cap, self.inexact_cap()):
                break
            self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        self._trim()
        return self.emitted >= self.limit

    def flush(self, report: ReportFn) -> bool:
        """Natural termination: nothing unresolved (or recoverable) remains.

        Exact entries emit at their exact probability; entries still
        inexact — their sites stayed DOWN to the end — emit at their
        Corollary-1 upper bound, in bound order, and the coordinator
        annotates them through ``CoverageReport.degraded``.  Entries
        beyond the limit stay pending for that same disclosure.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        return self.emitted >= self.limit
