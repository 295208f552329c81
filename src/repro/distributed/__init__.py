"""Distributed query processing: sites, coordinator, DSUD, e-DSUD,
the comparison baselines, and §5.4 update maintenance."""

from .advisor import CostEstimates, estimate_costs, recommend_algorithm
from .baseline import ShipAllBaseline
from .coordinator import Coordinator
from .dsud import DSUD
from .edsud import EDSUD, EDSUDConfig
from .naive import NaiveLocalSkylines
from .query import (
    ALGORITHMS,
    adistributed_skyline,
    build_coordinator,
    build_sites,
    distributed_skyline,
)
from .runner import RunResult
from .site import LocalSite, ProbeReply, SiteConfig
from .synopsis import GridSynopsis, SynopsisEDSUD, build_site_synopsis
from .updates import IncrementalMaintainer, MaintenanceReport, NaiveMaintainer

__all__ = [
    "CostEstimates",
    "estimate_costs",
    "recommend_algorithm",
    "GridSynopsis",
    "SynopsisEDSUD",
    "build_site_synopsis",
    "LocalSite",
    "SiteConfig",
    "ProbeReply",
    "Coordinator",
    "ShipAllBaseline",
    "NaiveLocalSkylines",
    "DSUD",
    "EDSUD",
    "EDSUDConfig",
    "RunResult",
    "ALGORITHMS",
    "build_sites",
    "build_coordinator",
    "distributed_skyline",
    "adistributed_skyline",
    "IncrementalMaintainer",
    "NaiveMaintainer",
    "MaintenanceReport",
]
