"""Synopsis-guided feedback selection — the road §5.2 decides *not* to take.

Before settling on the Corollary-2 bound, the paper considers having
every site ship "data synopses retaining the key statistical traits of
the original data distribution" so the server can pick the feedback
tuple with the greatest pruning power — and rejects the idea because
"transmitting such data synopses may occupy too much network
bandwidth".  This module implements that rejected design faithfully so
the claim can be measured rather than taken on faith (see the
``ablation-synopsis`` experiment).

Each site summarises its qualified local skyline as an equi-width grid
histogram over canonical min-space; every non-empty cell costs one
tuple-equivalent of bandwidth up front.  The coordinator then selects
the broadcast candidate by *estimated prune count* — how many
histogrammed candidates at other sites the tuple would dominate —
instead of by the Corollary-2 bound.  All soundness machinery
(Corollary-2 bounds for expunge and termination) is retained, so the
answer is provably identical; only the selection heuristic and the
up-front synopsis traffic differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.dominance import Preference, dominates_point
from ..net.message import MessageKind, Quaternion
from ..net.stats import LatencyModel
from ..net.transport import SiteEndpoint
from .coordinator import _SERVER
from .edsud import EDSUD, EDSUDConfig, _Resident
from .engine import _Request
from .site import LocalSite

__all__ = ["GridSynopsis", "build_site_synopsis", "SynopsisEDSUD"]


@dataclass(frozen=True)
class GridSynopsis:
    """An equi-width histogram of one site's local skyline candidates."""

    site_id: int
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    cells_per_dim: int
    #: cell index tuple → (candidate count, mean existential probability)
    cells: Dict[Tuple[int, ...], Tuple[int, float]] = field(default_factory=dict)

    @property
    def entry_count(self) -> int:
        """Non-empty cells = tuple-equivalents this synopsis cost to ship."""
        return len(self.cells)

    def cell_lower_corner(self, cell: Tuple[int, ...]) -> Tuple[float, ...]:
        widths = self._widths()
        return tuple(
            lo + idx * w for lo, idx, w in zip(self.lower, cell, widths)
        )

    def _widths(self) -> Tuple[float, ...]:
        return tuple(
            (up - lo) / self.cells_per_dim if up > lo else 1.0
            for lo, up in zip(self.lower, self.upper)
        )

    def estimated_dominated(self, point: Tuple[float, ...]) -> int:
        """Candidates in cells whose whole extent ``point`` dominates.

        A cell is counted when the point is ≤ its lower corner with a
        strict dimension — then every candidate inside is dominated.
        Conservative (boundary cells are skipped), which is the right
        bias for a selection heuristic.
        """
        return sum(
            count
            for cell, (count, _mean_p) in self.cells.items()
            if dominates_point(point, self.cell_lower_corner(cell))
        )


def build_site_synopsis(site: LocalSite, cells_per_dim: int = 8) -> GridSynopsis:
    """Histogram a site's current candidate queue in min-space."""
    if cells_per_dim < 1:
        raise ValueError("need at least one cell per dimension")
    points = []
    for candidate in site._queue:  # the qualified local skyline
        values = candidate.tuple.values
        if site.preference is not None:
            values = site.preference.project(values)
        points.append((tuple(values), candidate.tuple.probability))
    if not points:
        return GridSynopsis(site.site_id, (), (), cells_per_dim, {})
    d = len(points[0][0])
    lower = tuple(min(p[0][j] for p in points) for j in range(d))
    upper = tuple(max(p[0][j] for p in points) for j in range(d))
    widths = tuple(
        (up - lo) / cells_per_dim if up > lo else 1.0
        for lo, up in zip(lower, upper)
    )
    raw: Dict[Tuple[int, ...], List[float]] = {}
    for values, prob in points:
        cell = tuple(
            min(cells_per_dim - 1, int((v - lo) / w))
            for v, lo, w in zip(values, lower, widths)
        )
        raw.setdefault(cell, []).append(prob)
    cells = {
        cell: (len(probs), sum(probs) / len(probs)) for cell, probs in raw.items()
    }
    return GridSynopsis(site.site_id, lower, upper, cells_per_dim, cells)


class SynopsisEDSUD(EDSUD):
    """e-DSUD with §5.2's rejected synopsis-based feedback selection.

    Identical answers (the sound Corollary-2 machinery still governs
    expunge and termination); only the broadcast *order* follows the
    estimated prune count, and the synopsis shipment is billed up
    front.
    """

    algorithm = "synopsis-e-DSUD"

    def __init__(
        self,
        sites: Sequence[SiteEndpoint],
        threshold: float,
        preference: Optional[Preference] = None,
        latency_model: Optional[LatencyModel] = None,
        config: Optional[EDSUDConfig] = None,
        cells_per_dim: int = 8,
    ) -> None:
        super().__init__(sites, threshold, preference, latency_model, config=config)
        self.cells_per_dim = cells_per_dim
        self.synopses: Dict[int, GridSynopsis] = {}
        self.synopsis_tuples = 0

    def _prepare_sites_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[int]]:
        sizes = yield from super()._prepare_sites_script()
        # The rejected design's defining cost: one shipment of every
        # non-empty histogram cell, billed as tuple traffic.
        total = 0
        for site in self.sites:
            synopsis = build_site_synopsis(site, self.cells_per_dim)
            self.synopses[site.site_id] = synopsis
            for _ in range(synopsis.entry_count):
                self.stats.bill(MessageKind.DATA, self._names[site.site_id], _SERVER)
            total += synopsis.entry_count
        self.synopsis_tuples = total
        self.stats.record_round(tuples_in_round=total)
        return sizes

    def _select(self) -> List[Quaternion]:
        """Pick by estimated prune count; break ties by the sound bound.

        Only qualified residents are ranked — those whose bound is
        already below the threshold are left for the expunge machinery;
        selecting them would be wasted bandwidth regardless of their
        estimated reach.
        """
        return self._take(lambda resident: (self._reach(resident), resident.bound))

    def _reach(self, resident: _Resident) -> int:
        """How many histogrammed candidates at other sites it would dominate."""
        return sum(
            synopsis.estimated_dominated(resident.point)
            for site_id, synopsis in self.synopses.items()
            if site_id != resident.quaternion.site
        )

    def _extra(self) -> dict:
        extra = super()._extra()
        extra["synopsis_tuples"] = float(self.synopsis_tuples)
        return extra
