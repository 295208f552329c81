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
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from ..core.dominance import Preference, dominates
from ..core.probability import observation2_bound
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy
from ..net.message import Quaternion
from ..net.stats import LatencyModel
from ..net.transport import SiteEndpoint
from .coordinator import Coordinator, _Request

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
    """A server-resident candidate with its per-site bound factors."""

    quaternion: Quaternion
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
    exact_factors: Dict[int, float] = field(default_factory=dict)


class EDSUD(Coordinator):
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
        self._exhausted: set = set()

    # ------------------------------------------------------------------
    # bound bookkeeping
    # ------------------------------------------------------------------

    def _apply_seen_to(self, resident: _Resident, seen: _SeenTuple) -> None:
        """Tighten one resident's factors with one seen tuple, if it dominates."""
        q = seen.quaternion
        r = resident.quaternion
        if q.tuple.key == r.tuple.key:
            return
        if not dominates(q.tuple, r.tuple, self.preference):
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

    def _admit(self, quaternion: Quaternion) -> None:
        """Install a freshly fetched quaternion as its site's resident."""
        resident = _Resident(quaternion=quaternion)
        for seen in self._seen:
            self._apply_seen_to(resident, seen)
        entry = _SeenTuple(quaternion=quaternion)
        if self.config.eager_bound_refresh:
            for other in self._residents.values():
                self._apply_seen_to(other, entry)
        self._seen.append(entry)
        self._residents[quaternion.site] = resident

    # ------------------------------------------------------------------
    # the iteration policy
    # ------------------------------------------------------------------

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        yield from self._prepare_sites_script()
        site_by_id = {site.site_id: site for site in self.sites}
        for quaternion in (yield from self._initial_fill_script()):
            self._admit(quaternion)
        for site in self.sites:
            if site.site_id not in self._residents:
                self._exhausted.add(site.site_id)

        while True:
            # Reintegrate recovered sites: their missed factors were
            # re-probed inside poll_recoveries; resume their queues.  A
            # site that died *after* delivering its representative still
            # has a live resident at the server — fetching another here
            # would overwrite (and silently lose) it, so only sites
            # whose resident was consumed are refilled.
            for site in (yield from self._poll_recoveries_script()):
                self._exhausted.discard(site.site_id)
                if site.site_id not in self._residents:
                    yield from self._refill_script(site_by_id, site.site_id)
            if self.config.server_expunge:
                yield from self._expunge_dead_script(site_by_id)
            heads = self._top_residents()
            if not heads:
                if self._all_sites_drained():
                    break
                # Lazy mode: dead residents block non-exhausted sites;
                # drop them so those sites can surface fresh candidates.
                yield from self._expunge_dead_script(site_by_id)
                continue
            self.iterations += len(heads)
            quaternions = [resident.quaternion for resident in heads]
            for quaternion in quaternions:
                del self._residents[quaternion.site]
            # The refills below are unconditional, so their pops ride
            # the broadcast's fan-out instead of trailing it.
            global_probabilities = yield from self._broadcast_batch_tracking_script(
                quaternions,
                refill=[
                    site_by_id[quaternion.site]
                    for quaternion in quaternions
                    if quaternion.site not in self._exhausted
                ],
            )
            for quaternion, global_probability in zip(
                quaternions, global_probabilities
            ):
                # The coverage-aware funnel: reports directly without a
                # limit, otherwise buffers with the live TupleCoverage.
                self.emit(quaternion.tuple, global_probability)
            for quaternion in quaternions:
                yield from self._refill_script(site_by_id, quaternion.site)
            if self.limit is not None:
                # Everything unresolved — residents and their sites'
                # unfetched tails alike — is capped by the residents'
                # local skyline probabilities (Corollary 1 plus the
                # per-site descending queue order); drain_topk adds the
                # cap on whatever a DOWN site might still surface.
                remaining_cap = max(
                    (
                        r.quaternion.local_probability
                        for r in self._residents.values()
                    ),
                    default=0.0,
                )
                if self.drain_topk(remaining_cap):
                    return
            # One iteration done — a scheduling point for the serving
            # layer to interleave other sessions.
            yield
        self.finish_topk()

    def _broadcast_batch_tracking_script(
        self, quaternions: Sequence[Quaternion], refill: Sequence[SiteEndpoint] = ()
    ) -> Generator[Optional[_Request], Any, List[float]]:
        """Broadcast like the base class, but remember each tuple's exact factors."""
        quaternions = list(quaternions)
        global_probabilities = [q.local_probability for q in quaternions]
        exacts: List[Dict[int, float]] = [{} for _ in quaternions]
        triples = yield from self._broadcast_probes_batch_script(quaternions, refill)
        for site_id, index, factor in triples:
            global_probabilities[index] *= factor
            exacts[index][site_id] = factor
        for quaternion, exact in zip(quaternions, exacts):
            for seen in self._seen:
                if seen.quaternion.tuple.key == quaternion.tuple.key:
                    seen.exact_factors = exact
                    break
            if self.config.reuse_probe_factors and self.config.eager_bound_refresh:
                entry = _SeenTuple(quaternion=quaternion, exact_factors=exact)
                for other in self._residents.values():
                    self._apply_seen_to(other, entry)
        return global_probabilities

    def _refill_script(
        self, site_by_id: Dict[int, SiteEndpoint], site_id: int
    ) -> Generator[Optional[_Request], Any, None]:
        """Ask a site whose resident was consumed for its next candidate."""
        if site_id in self._exhausted:
            return
        quaternion = yield from self._fetch_representative_script(
            site_by_id[site_id]
        )
        if quaternion is None:
            self._exhausted.add(site_id)
            return
        self.stats.record_round(tuples_in_round=1)
        self._admit(quaternion)

    def _expunge_dead_script(
        self, site_by_id: Dict[int, SiteEndpoint]
    ) -> Generator[Optional[_Request], Any, None]:
        """Drop every resident whose bound proves it unqualified.

        Each drop frees its site, which is immediately asked for the
        next candidate; the loop runs until every resident is live or
        every queue is exhausted.
        """
        while True:
            dead = [
                site_id
                for site_id, resident in self._residents.items()
                if resident.bound < self.threshold
            ]
            if not dead:
                return
            for site_id in dead:
                del self._residents[site_id]
                self.expunged_total += 1
            # The freed sites pop in one wave; each refill is then
            # settled and admitted in turn, as if popped one by one.
            yield from self._fan_out_pops_script(
                [site_by_id[s] for s in dead if s not in self._exhausted]
            )
            for site_id in dead:
                yield from self._refill_script(site_by_id, site_id)

    def _max_bound_resident(self) -> Optional[_Resident]:
        best = None
        for resident in self._residents.values():
            if best is None or resident.bound > best.bound:
                best = resident
        return best

    def _top_residents(self) -> List[_Resident]:
        """Up to ``batch_size`` qualified residents, best bound first.

        Empty exactly when :meth:`_max_bound_resident` is ``None`` or
        below ``q`` — the termination test.  The stable sort keeps
        first-admitted order on ties, matching the single-head max
        scan.
        """
        live = [
            resident
            for resident in self._residents.values()
            if resident.bound >= self.threshold
        ]
        live.sort(key=lambda resident: resident.bound, reverse=True)
        return live[: self.batch_size]

    def _all_sites_drained(self) -> bool:
        return len(self._exhausted) == len(self.sites)

    def _extra(self) -> dict:
        return {"expunged": float(self.expunged_total)}
