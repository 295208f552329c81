"""Hierarchical coordination: regions of sites behind one endpoint.

Real deployments are rarely flat — sites cluster in data centers, and
WAN traffic between regions costs far more than LAN traffic within
them.  This module adds a two-tier topology *without touching the
algorithms*: a :class:`RegionCoordinator` owns a group of ordinary
sites and itself implements the
:class:`~repro.net.transport.SiteEndpoint` surface, so the root
coordinator (DSUD/e-DSUD, unchanged) sees one "site" per region.

The correctness subtlety is the representative's probability.  A flat
site reports ``P_sky(t, D_i)`` over its own partition; a region must
report ``P_sky(t, D_R)`` over the *union* of its children — otherwise
the root would never collect the factors of the candidate's sibling
sites (it excludes the origin endpoint from broadcasts).  Computing
that union probability needs intra-region probes, which is exactly the
point: those are LAN messages, tracked separately in
``region.local_stats``, while the WAN bill shrinks from ``m_sites`` to
``m_regions`` endpoints.

The regional queue is a lazy max-heap: child-queue heads enter keyed by
their child-local probability (an upper bound on the regional value);
on pop, the head is resolved against the sibling sites and re-queued
with its exact value unless it still beats the next bound.  Sound
because resolution only ever lowers the key.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence

from ..core.dominance import Preference, dominates
from ..core.probability import feedback_pruning_bound
from ..core.tuples import UncertainTuple
from ..net.message import MessageKind, Quaternion
from ..net.stats import NetworkStats
from ..net.transport import SiteEndpoint
from .site import ProbeReply

__all__ = ["RegionCoordinator", "build_regions"]


class RegionCoordinator:
    """A group of sites masquerading as one site endpoint."""

    def __init__(self, region_id: int, sites: Sequence[SiteEndpoint]) -> None:
        if not sites:
            raise ValueError("a region needs at least one site")
        self.site_id = region_id
        self.sites = list(sites)
        #: Intra-region (LAN) traffic, kept apart from the root's WAN books.
        self.local_stats = NetworkStats()
        self._region = f"region-{region_id}"
        self.threshold: Optional[float] = None
        self._heap: List = []  # (-bound, tick, quaternion, resolved, origin)
        self._counter = itertools.count()
        self._exhausted: set = set()
        self._feedback: List[UncertainTuple] = []
        self._pull_later: List[int] = []

    # ------------------------------------------------------------------
    # SiteEndpoint surface
    # ------------------------------------------------------------------

    def prepare(self, threshold: float) -> int:
        self.threshold = threshold
        self._heap = []
        self._exhausted = set()
        self._feedback = []
        total = 0
        for site in self.sites:
            self.local_stats.bill(MessageKind.PREPARE, self._region, f"site-{site.site_id}")
            total += site.prepare(threshold)
            self.local_stats.bill(MessageKind.PREPARE_REPLY, f"site-{site.site_id}", self._region)
            self._pull_from(site)
        return total

    def pop_representative(self) -> Optional[Quaternion]:
        """The region's best candidate, with its *regional* probability.

        Lazy resolution: heap keys are child-local probabilities
        (upper bounds); a popped head is resolved against sibling sites
        and either emitted (still ≥ the next bound) or re-queued with
        its exact value.
        """
        if self.threshold is None:
            raise RuntimeError("region used before prepare()")
        while self._heap:
            neg_prob, _, quaternion, resolved, origin = heapq.heappop(self._heap)
            prob = -neg_prob
            if prob < self.threshold:
                break
            if not resolved:
                regional = self._resolve_regional(quaternion)
                self._pull_from(self._site_by_id(origin))
                if regional < self.threshold:
                    continue  # can never qualify; its slot was refilled
                quaternion = Quaternion(
                    site=self.site_id,
                    tuple=quaternion.tuple,
                    local_probability=regional,
                )
                next_bound = -self._heap[0][0] if self._heap else 0.0
                if regional < next_bound:
                    heapq.heappush(
                        self._heap,
                        (-regional, next(self._counter), quaternion, True, origin),
                    )
                    continue
            # (A resolved entry's origin slot was already refilled when
            # it was first resolved — no further pull on emission.)
            return quaternion
        return None

    def probe_and_prune(self, t: UncertainTuple) -> ProbeReply:
        """Forward a root broadcast to every child; multiply the factors."""
        factor = 1.0
        pruned = 0
        remaining = 0
        for site in self.sites:
            self.local_stats.bill(MessageKind.FEEDBACK, self._region, f"site-{site.site_id}")
            reply = site.probe_and_prune(t)
            self.local_stats.bill(MessageKind.PROBE_REPLY, f"site-{site.site_id}", self._region)
            factor *= reply.factor
            pruned += reply.pruned
            remaining += reply.queue_remaining
        self.local_stats.record_round(tuples_in_round=len(self.sites))
        self._feedback.append(t)
        pruned += self._prune_regional_queue(t)
        return ProbeReply(factor=factor, pruned=pruned, queue_remaining=remaining)

    def queue_size(self) -> int:
        total = len(self._heap)
        for site in self.sites:
            self.local_stats.bill(MessageKind.CONTROL, self._region, f"site-{site.site_id}")
            total += site.queue_size()
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _site_by_id(self, site_id: int) -> SiteEndpoint:
        for site in self.sites:
            if site.site_id == site_id:
                return site
        raise KeyError(f"region {self.site_id} has no site {site_id}")

    def _pull_from(self, site: SiteEndpoint) -> None:
        """Fetch a site's next head into the regional heap (LAN traffic)."""
        if site.site_id in self._exhausted:
            return
        quaternion = site.pop_representative()
        self.local_stats.bill(MessageKind.REPRESENTATIVE, f"site-{site.site_id}", self._region)
        if quaternion is None:
            self._exhausted.add(site.site_id)
            return
        # Feedback that arrived while this candidate sat in its site's
        # queue has already pruned there; feedback received since must
        # be applied to the regional bound as well.
        bound = feedback_pruning_bound(
            quaternion.local_probability,
            (f for f in self._feedback if dominates(f, quaternion.tuple)),
        )
        if bound < (self.threshold or 0.0):
            self._pull_from(site)
            return
        heapq.heappush(
            self._heap,
            (
                -quaternion.local_probability,
                next(self._counter),
                quaternion,
                False,
                site.site_id,
            ),
        )

    def _resolve_regional(self, quaternion: Quaternion) -> float:
        """P_sky(t, D_region): multiply in the sibling sites' factors."""
        regional = quaternion.local_probability
        probed = 0
        for site in self.sites:
            if site.site_id == quaternion.site:
                continue
            self.local_stats.bill(MessageKind.FEEDBACK, self._region, f"site-{site.site_id}")
            reply = site.probe_and_prune(quaternion.tuple)
            self.local_stats.bill(MessageKind.PROBE_REPLY, f"site-{site.site_id}", self._region)
            regional *= reply.factor
            probed += 1
        self.local_stats.record_round(tuples_in_round=probed)
        return regional

    def _prune_regional_queue(self, feedback: UncertainTuple) -> int:
        """Apply a root feedback tuple to candidates already in the heap."""
        survivors = []
        pruned = 0
        for neg_prob, tick, quaternion, resolved, origin in self._heap:
            bound = -neg_prob
            if dominates(feedback, quaternion.tuple):
                bound = feedback_pruning_bound(bound, [feedback])
                if bound < (self.threshold or 0.0):
                    pruned += 1
                    # Its origin site deserves a fresh slot.
                    if origin not in self._exhausted:
                        self._pull_later.append(origin)
                    continue
            survivors.append((-bound, tick, quaternion, resolved, origin))
        heapq.heapify(survivors)
        self._heap = survivors
        pending, self._pull_later = self._pull_later, []
        for origin in pending:
            self._pull_from(self._site_by_id(origin))
        return pruned


def build_regions(
    partitions: Sequence[Sequence[UncertainTuple]],
    region_size: int,
    preference: Optional[Preference] = None,
    site_config: Optional["SiteConfig"] = None,
) -> List[RegionCoordinator]:
    """Group flat partitions into regions of ``region_size`` sites each."""
    from .query import build_sites

    if region_size < 1:
        raise ValueError("region_size must be positive")
    sites = build_sites(partitions, preference=preference, site_config=site_config)
    regions = []
    for start in range(0, len(sites), region_size):
        group = sites[start : start + region_size]
        regions.append(RegionCoordinator(region_id=1000 + len(regions), sites=group))
    return regions
