"""repro — Distributed Skyline Queries over Uncertain Data.

A from-scratch reproduction of Ding & Jin, *Efficient and Progressive
Algorithms for Distributed Skyline Queries over Uncertain Data*
(ICDCS 2010 / TKDE 2011): the DSUD and e-DSUD algorithms for answering
probabilistic threshold skyline queries over horizontally partitioned
uncertain databases with minimal communication, together with every
substrate they stand on — the uncertain data model, the Probabilistic
R-tree, centralized skyline algorithms, a simulated distributed
network with exact bandwidth accounting, workload generators, and
update maintenance.

Quickstart::

    from repro import make_synthetic_workload, distributed_skyline

    wl = make_synthetic_workload("anticorrelated", n=5000, d=3, sites=8, seed=7)
    result = distributed_skyline(wl.partitions, threshold=0.3, algorithm="edsud")
    print(result.summary())
    for member in result.answer:
        print(member.tuple, member.probability)
"""

from .core import (
    Direction,
    Preference,
    ProbabilisticSkyline,
    SkylineMember,
    UncertainTuple,
    dominates,
    expected_skyline_cardinality,
    make_tuples,
    prob_skyline_brute_force,
    prob_skyline_sfs,
    skyline,
    skyline_probability,
    tuples_from_arrays,
)
from .data import (
    Workload,
    load_tuples,
    make_nyse_workload,
    make_synthetic_workload,
    nyse_preference,
    save_tuples,
)
from .distributed import (
    ALGORITHMS,
    DSUD,
    EDSUD,
    EDSUDConfig,
    IncrementalMaintainer,
    LocalSite,
    NaiveLocalSkylines,
    NaiveMaintainer,
    RunResult,
    ShipAllBaseline,
    SiteConfig,
    adistributed_skyline,
    build_coordinator,
    build_sites,
    distributed_skyline,
)
from .index import PRTree, bbs_prob_skyline
from .net import LatencyModel
from .replica import ReplicaManager, assign_buddies

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "UncertainTuple",
    "make_tuples",
    "tuples_from_arrays",
    "Direction",
    "Preference",
    "dominates",
    "skyline",
    "skyline_probability",
    "SkylineMember",
    "ProbabilisticSkyline",
    "prob_skyline_brute_force",
    "prob_skyline_sfs",
    "expected_skyline_cardinality",
    # index
    "PRTree",
    "bbs_prob_skyline",
    # data
    "Workload",
    "make_synthetic_workload",
    "make_nyse_workload",
    "nyse_preference",
    # distributed
    "LocalSite",
    "SiteConfig",
    "DSUD",
    "EDSUD",
    "EDSUDConfig",
    "NaiveLocalSkylines",
    "ShipAllBaseline",
    "RunResult",
    "ALGORITHMS",
    "build_sites",
    "build_coordinator",
    "distributed_skyline",
    "adistributed_skyline",
    "IncrementalMaintainer",
    "NaiveMaintainer",
    # data io
    "load_tuples",
    "save_tuples",
    # net
    "LatencyModel",
    # replica
    "ReplicaManager",
    "assign_buddies",
]
