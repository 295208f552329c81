"""Continuous skyline maintenance under local updates (§5.4).

After an initial distributed query has produced ``SKY(H)``, local sites
keep receiving inserts and deletes.  Two maintainers are provided:

* :class:`IncrementalMaintainer` — the paper's replica-based strategy.
  ``SKY(H)`` is duplicated at every participant, so most updates
  resolve with *zero* wide-area tuple traffic:

  - **insert** — existing results dominated by the new tuple are
    re-weighted locally (their global probability just gains the
    factor ``1 − P(t)``); the new tuple itself is globally resolved
    only when the replica cannot already disqualify it.
  - **delete** — results lose the deleted dominator's factor, again a
    local reweighting; only locally-qualified tuples that the deleted
    tuple had been suppressing are re-resolved over the network, and a
    replica-based bound skips most of those resolutions too.

* :class:`NaiveMaintainer` — the strawman the paper compares against:
  rerun the full distributed query whenever fresh results must be
  reported.

Both maintainers keep the exact invariant tested by the suite: after
any update sequence their answer equals a from-scratch centralized
recomputation over the current site databases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference, dominates
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from ..core.probability import feedback_pruning_bound
from ..core.tuples import UncertainTuple
from ..net.message import MessageKind
from ..net.stats import LatencyModel, NetworkStats
from .edsud import EDSUD
from .site import LocalSite

if TYPE_CHECKING:
    from ..replica.manager import ReplicaManager

__all__ = ["MaintenanceReport", "IncrementalMaintainer", "NaiveMaintainer"]


@dataclass
class MaintenanceReport:
    """What one update cost and changed."""

    operation: str
    key: int
    seconds: float
    tuples_transmitted: int
    added: List[int] = field(default_factory=list)
    removed: List[int] = field(default_factory=list)
    reweighted: List[int] = field(default_factory=list)


class _MaintainerBase:
    """Shared bootstrap: run e-DSUD once to obtain the initial SKY(H)."""

    def __init__(
        self,
        sites: Sequence[LocalSite],
        threshold: float,
        preference: Optional[Preference] = None,
        latency_model: Optional[LatencyModel] = None,
        replica_manager: Optional["ReplicaManager"] = None,
    ) -> None:
        self.sites = list(sites)
        self.threshold = threshold
        self.preference = preference
        self.latency_model = latency_model or LatencyModel()
        self.stats = NetworkStats(latency_model=self.latency_model)
        self.replica_manager = replica_manager
        self.sky: Dict[int, Tuple[UncertainTuple, float]] = {}
        self._bootstrap()

    def _apply_insert(self, site_id: int, t: UncertainTuple) -> None:
        """Insert at the primary AND every buddy replica.

        Updates that only touch the primary are the resurrection bug a
        replicated cluster cannot afford: a failover after a
        primary-only delete would bring the tuple back from the dead,
        and a primary-only insert would silently vanish.  All §5.4
        writes therefore route through here.
        """
        self._site(site_id).insert_tuple(t)
        if self.replica_manager is not None:
            self.replica_manager.forward_insert(site_id, t)

    def _apply_delete(self, site_id: int, key: int) -> UncertainTuple:
        """Delete at the primary AND every buddy replica (see _apply_insert)."""
        t = self._site(site_id).delete_tuple(key)
        if self.replica_manager is not None:
            self.replica_manager.forward_delete(site_id, key)
        return t

    def _bootstrap(self) -> None:
        result = EDSUD(
            self.sites, self.threshold, self.preference, self.latency_model
        ).run()
        self.sky = {m.key: (m.tuple, m.probability) for m in result.answer}
        self._push_replicas()

    def _push_replicas(self) -> None:
        for site in self.sites:
            self.stats.bill(MessageKind.CONTROL, "server", f"site-{site.site_id}")
            site.set_replica(self.sky)

    def skyline(self) -> ProbabilisticSkyline:
        """The currently maintained global answer."""
        members = [SkylineMember(t, p) for t, p in self.sky.values()]
        return ProbabilisticSkyline(self.threshold, members)

    def _site(self, site_id: int) -> LocalSite:
        for site in self.sites:
            if site.site_id == site_id:
                return site
        raise KeyError(f"no site with id {site_id}")


class IncrementalMaintainer(_MaintainerBase):
    """§5.4's replica-based incremental maintenance."""

    def insert(self, site_id: int, t: UncertainTuple) -> MaintenanceReport:
        start = time.perf_counter()
        before = self.stats.tuples_transmitted
        self._apply_insert(site_id, t)
        report = MaintenanceReport("insert", t.key, 0.0, 0)

        # 1. Reweight existing results the new tuple dominates — pure
        #    replica arithmetic, no network tuples.
        removed = []
        for key, (s, prob) in list(self.sky.items()):
            if dominates(t, s, self.preference):
                new_prob = feedback_pruning_bound(prob, [t])
                if new_prob < self.threshold:
                    removed.append(key)
                    del self.sky[key]
                else:
                    self.sky[key] = (s, new_prob)
                    report.reweighted.append(key)
        report.removed.extend(removed)

        # 2. Does the new tuple itself qualify?  The replica gives a
        #    free upper bound before any bandwidth is spent.
        bound = feedback_pruning_bound(
            t.probability,
            (s for s, _prob in self.sky.values() if dominates(s, t, self.preference)),
        )
        if bound >= self.threshold:
            prob = self._resolve_global(site_id, t)
            if prob >= self.threshold:
                self.sky[t.key] = (t, prob)
                report.added.append(t.key)

        self._sync_replicas_if_changed(report)
        report.seconds = time.perf_counter() - start
        report.tuples_transmitted = self.stats.tuples_transmitted - before
        return report

    def delete(self, site_id: int, key: int) -> MaintenanceReport:
        start = time.perf_counter()
        before = self.stats.tuples_transmitted
        site = self._site(site_id)
        t = self._apply_delete(site_id, key)
        report = MaintenanceReport("delete", key, 0.0, 0)

        # 1. The tuple itself leaves the answer if it was in it.
        if key in self.sky:
            del self.sky[key]
            report.removed.append(key)

        # 2. Results it dominated regain its non-occurrence factor —
        #    again replica-local arithmetic.
        survivor_factor = 1.0 - t.probability
        if survivor_factor > 0.0:
            # A P(t)=1 tuple forces every dominated tuple's probability
            # to zero, so none of them can be a current member and the
            # reweighting loop would have nothing to divide.
            for skey, (s, prob) in list(self.sky.items()):
                if dominates(t, s, self.preference):
                    self.sky[skey] = (s, prob / survivor_factor)
                    report.reweighted.append(skey)

        # 3. Locally-qualified tuples the deleted one was suppressing
        #    may newly qualify.  The deleting site scans itself for
        #    free; every other site is probed with one tuple.  The
        #    current (post-removal) answer doubles as the pruning set —
        #    sites hold it as their replica anyway — so dominated
        #    tuples that provably still miss q are skipped without an
        #    index probe.
        pruners = [s for s, _prob in self.sky.values()]
        candidates: List[Tuple[UncertainTuple, float, int]] = []
        for cand, local_prob in site.dominated_local_candidates(
            t, self.threshold, pruners=pruners
        ):
            candidates.append((cand, local_prob, site_id))
        recovered = 0
        for other in self.sites:
            if other.site_id == site_id:
                continue
            self.stats.bill(MessageKind.UPDATE, "server", f"site-{other.site_id}")
            found = other.dominated_local_candidates(
                t, self.threshold, pruners=pruners
            )
            for cand, local_prob in found:
                candidates.append((cand, local_prob, other.site_id))
            recovered += len(found)
        self.stats.record_round(tuples_in_round=len(self.sites) - 1)

        for cand, _local_prob, origin in candidates:
            if cand.key in self.sky:
                continue
            bound = feedback_pruning_bound(
                cand.probability,
                (
                    s
                    for s, _prob in self.sky.values()
                    if s.key != cand.key and dominates(s, cand, self.preference)
                ),
            )
            if bound < self.threshold:
                continue
            prob = self._resolve_global(origin, cand)
            if prob >= self.threshold:
                self.sky[cand.key] = (cand, prob)
                report.added.append(cand.key)

        self._sync_replicas_if_changed(report)
        report.seconds = time.perf_counter() - start
        report.tuples_transmitted = self.stats.tuples_transmitted - before
        return report

    # ------------------------------------------------------------------

    def _resolve_global(self, origin_site: int, t: UncertainTuple) -> float:
        """Exact global probability of ``t``: one tuple up, m−1 probes out."""
        origin = self._site(origin_site)
        self.stats.bill(MessageKind.UPDATE, f"site-{origin_site}", "server")
        prob = (
            origin.local_skyline_probability(t)
            if origin.contains(t.key)
            else origin.probe(t) * t.probability
        )
        sent = 0
        for other in self.sites:
            if other.site_id == origin_site:
                continue
            self.stats.bill(MessageKind.UPDATE, "server", f"site-{other.site_id}")
            prob *= other.probe(t)
            self.stats.bill(MessageKind.CONTROL, f"site-{other.site_id}", "server")
            sent += 1
        self.stats.record_round(tuples_in_round=1 + sent)
        return prob

    def _sync_replicas_if_changed(self, report: MaintenanceReport) -> None:
        if not (report.added or report.removed or report.reweighted):
            return
        # _push_replicas bills one control message per site.
        self._push_replicas()
        self.stats.record_round()


class NaiveMaintainer(_MaintainerBase):
    """Recompute the whole distributed query on every update."""

    def insert(self, site_id: int, t: UncertainTuple) -> MaintenanceReport:
        start = time.perf_counter()
        self._apply_insert(site_id, t)
        tuples = self._recompute()
        return MaintenanceReport(
            "insert", t.key, time.perf_counter() - start, tuples
        )

    def delete(self, site_id: int, key: int) -> MaintenanceReport:
        start = time.perf_counter()
        self._apply_delete(site_id, key)
        tuples = self._recompute()
        return MaintenanceReport(
            "delete", key, time.perf_counter() - start, tuples
        )

    def _recompute(self) -> int:
        coordinator = EDSUD(
            self.sites, self.threshold, self.preference, self.latency_model
        )
        # The rerun bills straight into the maintainer's books, so every
        # message it sends stays attributable to its kind.
        coordinator.stats = self.stats
        before = self.stats.tuples_transmitted
        result = coordinator.run()
        self.sky = {m.key: (m.tuple, m.probability) for m in result.answer}
        self._push_replicas()
        return self.stats.tuples_transmitted - before
