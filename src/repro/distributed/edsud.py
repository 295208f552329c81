"""The enhanced DSUD algorithm, e-DSUD (§5.2).

e-DSUD keeps DSUD's protocol but changes *which* tuple the server
broadcasts: instead of the largest local skyline probability (head of
``L``), it maintains a second ordering ``G`` keyed by the Corollary-2
approximate global bound ``P*_g-sky`` — computable from information the
server already holds, at zero extra bandwidth — and broadcasts its
head.  A candidate with the largest *achievable* global probability is
simultaneously the most likely qualified result and the strongest
pruner for the Local-Pruning phase.

Two further consequences of the bound:

* **Server-side expunge** — a resident whose bound sinks below ``q``
  can never qualify; it is dropped without being broadcast and its
  origin site is immediately asked for its next candidate.  (The
  paper's §5.2 prescribes this eagerly; its §5.3 worked example keeps
  dead residents around until the end — both behaviours are available
  via ``EDSUDConfig.server_expunge``, and both are correct because
  bounds only ever decrease.)
* **Sound termination** — the query is complete when every site is
  exhausted and every remaining resident's bound is below ``q``.

``EDSUDConfig.reuse_probe_factors`` adds an optimization beyond the
paper: the exact Eq.-9 factors returned by a broadcast are remembered
and reused as per-site bounds for residents the broadcast tuple
dominates (always at least as tight as the Observation-2 estimate).
It defaults off to stay faithful; the ablation benchmark measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference, dominates_point
from ..core.probability import observation2_bound
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy
from ..net.message import Quaternion
from ..net.stats import LatencyModel
from ..net.transport import SiteEndpoint
from .progressive import ProgressiveCoordinator

if TYPE_CHECKING:
    from ..replica.manager import ReplicaManager

__all__ = ["EDSUDConfig", "EDSUD"]


@dataclass(frozen=True)
class EDSUDConfig:
    """Feedback-selection policy knobs (ablation switches).

    ``server_expunge``      — eagerly drop residents whose bound falls
                              below ``q`` (paper §5.2); if False they
                              linger until termination needs progress
                              (paper §5.3 example behaviour).
    ``eager_bound_refresh`` — tighten existing residents' bounds with
                              every newly arrived quaternion; if False
                              bounds are only computed on arrival.
    ``reuse_probe_factors`` — fold exact broadcast factors back into
                              resident bounds (beyond-paper
                              optimization).
    """

    server_expunge: bool = True
    eager_bound_refresh: bool = True
    reuse_probe_factors: bool = False


@dataclass
class _Resident:
    """A server-resident candidate with its per-site bound factors.

    ``point`` is the tuple's min-space projection, computed once on
    arrival for every dominance test it takes part in.
    """

    quaternion: Quaternion
    point: Tuple[float, ...]
    factors: Dict[int, float] = field(default_factory=dict)

    @property
    def bound(self) -> float:
        b = self.quaternion.local_probability
        for f in self.factors.values():
            b *= f
        return b


@dataclass
class _SeenTuple:
    """Everything ever shipped to the server (the paper's 'tuples in L')."""

    quaternion: Quaternion
    point: Tuple[float, ...]
    exact_factors: Dict[int, float] = field(default_factory=dict)


class EDSUD(ProgressiveCoordinator):
    """Enhanced DSUD with Corollary-2 feedback selection."""

    algorithm = "e-DSUD"

    def __init__(
        self,
        sites: Sequence[SiteEndpoint],
        threshold: float,
        preference: Optional[Preference] = None,
        latency_model: Optional[LatencyModel] = None,
        config: Optional[EDSUDConfig] = None,
        limit: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: int = 1,
        replica_manager: Optional["ReplicaManager"] = None,
        liveness_book: Optional[LivenessBook] = None,
    ) -> None:
        super().__init__(
            sites, threshold, preference, latency_model,
            retry_policy=retry_policy,
            batch_size=batch_size,
            limit=limit,
            replica_manager=replica_manager,
            liveness_book=liveness_book,
        )
        self.config = config or EDSUDConfig()
        self.expunged_total = 0
        self._seen: List[_SeenTuple] = []
        self._residents: Dict[int, _Resident] = {}

    # ------------------------------------------------------------------
    # bound bookkeeping
    # ------------------------------------------------------------------

    def _apply_seen_to(self, resident: _Resident, seen: _SeenTuple) -> None:
        """Tighten one resident's factors with one seen tuple, if it dominates."""
        q = seen.quaternion
        r = resident.quaternion
        if q.tuple.key == r.tuple.key:
            return
        if not dominates_point(seen.point, resident.point):
            return
        if q.site != r.site:
            factor = observation2_bound(q.local_probability, q.tuple.probability)
            prev = resident.factors.get(q.site)
            if prev is None or factor < prev:
                resident.factors[q.site] = factor
        if self.config.reuse_probe_factors:
            for site_id, exact in seen.exact_factors.items():
                if site_id == r.site:
                    continue
                prev = resident.factors.get(site_id)
                if prev is None or exact < prev:
                    resident.factors[site_id] = exact

    def _point(self, quaternion: Quaternion) -> Tuple[float, ...]:
        values = quaternion.tuple.values
        return values if self.preference is None else self.preference.project(values)

    def _admit(self, quaternion: Quaternion) -> None:
        """Install a freshly fetched quaternion as its site's resident."""
        point = self._point(quaternion)
        resident = _Resident(quaternion=quaternion, point=point)
        for seen in self._seen:
            self._apply_seen_to(resident, seen)
        entry = _SeenTuple(quaternion=quaternion, point=point)
        if self.config.eager_bound_refresh:
            for other in self._residents.values():
                self._apply_seen_to(other, entry)
        self._seen.append(entry)
        self._residents[quaternion.site] = resident

    # ------------------------------------------------------------------
    # the ordering policy
    # ------------------------------------------------------------------

    def _select(self) -> List[Quaternion]:
        return self._take(lambda resident: resident.bound)

    def _take(self, priority: Callable[[_Resident], Any]) -> List[Quaternion]:
        """Consume up to ``batch_size`` qualified residents, best first.

        Empty exactly when no resident's bound reaches ``q`` — the
        termination test.  The stable sort keeps first-admitted order
        on ties, matching a single-head max scan.
        """
        live = [r for r in self._residents.values() if r.bound >= self.threshold]
        live.sort(key=priority, reverse=True)
        heads = [resident.quaternion for resident in live[: self.batch_size]]
        for head in heads:
            del self._residents[head.site]
        return heads

    def _remaining_cap(self) -> float:
        return max(
            (r.quaternion.local_probability for r in self._residents.values()),
            default=0.0,
        )

    def _holds(self, site_id: int) -> bool:
        # A site that died *after* delivering its representative still
        # has a live resident at the server — fetching another would
        # overwrite (and silently lose) it.
        return site_id in self._residents

    def _expunge(self, stalled: bool) -> List[int]:
        """Drop every resident whose bound proves it unqualified.

        Eagerly (§5.2) under ``server_expunge``; otherwise only once
        dead residents block sites that still have candidates (the
        §5.3 example's behaviour).
        """
        if not (stalled or self.config.server_expunge):
            return []
        dead = [
            site_id
            for site_id, resident in self._residents.items()
            if resident.bound < self.threshold
        ]
        for site_id in dead:
            del self._residents[site_id]
        self.expunged_total += len(dead)
        return dead

    def _learn(self, quaternion: Quaternion, factors: Dict[int, float]) -> None:
        if not self.config.reuse_probe_factors:
            return  # exact factors are only ever read back under this switch
        for seen in self._seen:
            if seen.quaternion.tuple.key == quaternion.tuple.key:
                seen.exact_factors = factors
                break
        if self.config.eager_bound_refresh:
            entry = _SeenTuple(
                quaternion=quaternion, point=self._point(quaternion), exact_factors=factors
            )
            for other in self._residents.values():
                self._apply_seen_to(other, entry)

    def _extra(self) -> dict:
        return {"expunged": float(self.expunged_total)}
