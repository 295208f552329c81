"""One-call front door for distributed skyline queries.

:func:`distributed_skyline` assembles :class:`LocalSite` runtimes from
raw partitions, picks the algorithm by name, runs it, and hands back
the full :class:`~repro.distributed.runner.RunResult` — the function
examples, tests, and the benchmark harness all build on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Type

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..fault.injection import FaultyEndpoint
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy
from ..fault.schedule import FaultSchedule
from ..net.stats import LatencyModel
from ..net.transport import SiteEndpoint
from ..replica.manager import ReplicaManager
from .baseline import ShipAllBaseline
from .coordinator import Coordinator
from .dsud import DSUD
from .edsud import EDSUD, EDSUDConfig
from .naive import NaiveLocalSkylines
from .runner import RunResult
from .site import LocalSite, SiteConfig

__all__ = [
    "ALGORITHMS",
    "build_sites",
    "assemble_coordinator",
    "build_coordinator",
    "distributed_skyline",
    "adistributed_skyline",
]

ALGORITHMS: Dict[str, Type[Coordinator]] = {
    "ship-all": ShipAllBaseline,
    "naive": NaiveLocalSkylines,
    "dsud": DSUD,
    "edsud": EDSUD,
}

#: The algorithms with an iteration to stop early, batch, or fail over.
PROGRESSIVE = (DSUD, EDSUD)


def build_sites(
    partitions: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
    site_config: Optional[SiteConfig] = None,
) -> List[LocalSite]:
    """Instantiate one :class:`LocalSite` per partition (ids are indices)."""
    return [
        LocalSite(site_id=i, database=part, preference=preference, config=site_config)
        for i, part in enumerate(partitions)
    ]


def assemble_coordinator(
    sites: Sequence[SiteEndpoint],
    threshold: float,
    algorithm: str = "edsud",
    preference: Optional[Preference] = None,
    latency_model: Optional[LatencyModel] = None,
    edsud_config: Optional[EDSUDConfig] = None,
    limit: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    batch_size: int = 1,
    replica_manager: Optional[ReplicaManager] = None,
    liveness_book: Optional[LivenessBook] = None,
) -> Coordinator:
    """The coordinator for one query over *ready* endpoints.

    The one place an algorithm name becomes a class: solo queries
    (:func:`build_coordinator`) and served sessions
    (:class:`~repro.serve.service.SkylineService`) both end here, so a
    knob the chosen algorithm cannot honour is rejected the same way
    everywhere instead of being silently dropped by one front door.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
        )
    cls = ALGORITHMS[algorithm]
    if edsud_config is not None and cls is not EDSUD:
        raise ValueError(
            f"edsud_config= requires algorithm='edsud', got {algorithm!r}"
        )
    if cls in PROGRESSIVE:
        knobs: Dict[str, Any] = dict(
            limit=limit, retry_policy=retry_policy, batch_size=batch_size,
            replica_manager=replica_manager, liveness_book=liveness_book,
        )
        if cls is EDSUD:
            knobs["config"] = edsud_config
        return cls(sites, threshold, preference, latency_model, **knobs)
    if replica_manager is not None:
        raise ValueError(
            f"replication requires a progressive algorithm "
            f"(dsud/edsud); {algorithm!r} has no failover protocol"
        )
    if limit is not None:
        raise ValueError(
            f"limit= requires a progressive algorithm (dsud/edsud); "
            f"{algorithm!r} resolves everything before its first result"
        )
    if batch_size != 1:
        raise ValueError(
            f"batch_size= requires a progressive algorithm (dsud/edsud); "
            f"{algorithm!r} has no broadcast rounds to batch"
        )
    return cls(sites, threshold, preference, latency_model)


def build_coordinator(
    partitions: Sequence[Sequence[UncertainTuple]],
    threshold: float,
    algorithm: str = "edsud",
    preference: Optional[Preference] = None,
    site_config: Optional[SiteConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    edsud_config: Optional[EDSUDConfig] = None,
    limit: Optional[int] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    batch_size: int = 1,
    replication_factor: int = 1,
    replica_manager: Optional[ReplicaManager] = None,
) -> Coordinator:
    """Assemble (but do not run) the coordinator for one query.

    Shared by :func:`distributed_skyline` (sync ``run``) and
    :func:`adistributed_skyline` (awaitable ``asteps``); validation
    and site/replica assembly are identical, so the two drivers differ
    only in who owns the event loop.
    """
    if replication_factor < 1:
        raise ValueError(
            f"replication_factor must be >= 1, got {replication_factor!r}"
        )
    sites: Sequence = build_sites(
        partitions, preference=preference, site_config=site_config
    )
    if fault_schedule is not None:
        sites = [FaultyEndpoint(site, fault_schedule) for site in sites]
    if replica_manager is None and replication_factor > 1:
        if ALGORITHMS.get(algorithm) not in PROGRESSIVE:
            raise ValueError(
                f"replication_factor= requires a progressive algorithm "
                f"(dsud/edsud); {algorithm!r} has no failover protocol"
            )
        # Replicas are provisioned from the (possibly fault-wrapped)
        # primaries via ship_all — a maintenance path the fault
        # schedule does not gate — onto plain LocalSite copies; the
        # provisioning cost lands on the manager's standing books.
        replica_manager = ReplicaManager.provision(
            sites, replication_factor,
            preference=preference, site_config=site_config,
        )
    return assemble_coordinator(
        sites, threshold, algorithm=algorithm, preference=preference,
        latency_model=latency_model, edsud_config=edsud_config, limit=limit,
        retry_policy=retry_policy, batch_size=batch_size,
        replica_manager=replica_manager,
    )


def distributed_skyline(
    partitions: Sequence[Sequence[UncertainTuple]],
    threshold: float,
    algorithm: str = "edsud",
    preference: Optional[Preference] = None,
    site_config: Optional[SiteConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    edsud_config: Optional[EDSUDConfig] = None,
    limit: Optional[int] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    batch_size: int = 1,
    replication_factor: int = 1,
    replica_manager: Optional[ReplicaManager] = None,
) -> RunResult:
    """Answer a distributed probabilistic skyline query.

    Parameters
    ----------
    partitions:
        The horizontal partition ``D_1 … D_m`` — one sequence of
        :class:`UncertainTuple` per site.
    threshold:
        The probability threshold ``q`` in ``(0, 1]``.
    algorithm:
        ``"edsud"`` (default), ``"dsud"``, ``"naive"``, or
        ``"ship-all"``.
    preference:
        Optional per-dimension directions / subspace.
    site_config, latency_model, edsud_config:
        Execution knobs; see the respective classes.
    limit:
        Optional top-k: stop after the ``k`` globally most probable
        qualified tuples are resolved, emitted in descending
        probability order.  Supported by the progressive algorithms
        (``dsud``/``edsud``) only — the point is stopping early, which
        the bulk strawmen cannot do.  Composes with
        ``fault_schedule``: a tuple whose probability is only a
        Corollary-1 bound is never emitted early, so if every failed
        site recovers before termination the answer (and emission
        order) equals the fault-free run; with sites permanently DOWN
        the held-back candidates are disclosed via
        ``RunResult.coverage.buffered`` / ``coverage.degraded``.
    fault_schedule:
        Optional chaos plan: every site is wrapped in a
        :class:`~repro.fault.injection.FaultyEndpoint` replaying it.
    retry_policy:
        Optional :class:`~repro.fault.retry.RetryPolicy` for every
        coordinator→site RPC (progressive algorithms only); exhausted
        retries degrade the query instead of failing it.
    batch_size:
        Feedback quaternions per FEEDBACK message (progressive
        algorithms only).  The default 1 reproduces the paper's
        per-candidate protocol bit-for-bit; larger batches cut
        coordination rounds (see docs/performance.md).
    replication_factor:
        Copies kept of every partition (progressive algorithms only).
        The default 1 is the unreplicated protocol, bit-identical to
        earlier behaviour.  With ``f >= 2`` each partition gets
        ``f - 1`` buddy replicas (seed-deterministic ring placement)
        and a primary that dies mid-query is *failed over*: a replica
        is promoted, the in-flight round replayed, and the answer
        stays exact — equal to the fault-free run — instead of
        degrading to Corollary-1 bounds (see docs/failure-model.md).
    replica_manager:
        Optionally supply a pre-built (possibly update-forwarded)
        :class:`~repro.replica.manager.ReplicaManager` instead of
        ``replication_factor``; failover and failback traffic is
        billed to this query's books, provisioning and forwarded
        writes to the manager's standing book.

    Returns the :class:`RunResult` with the answer, exact bandwidth
    accounting, the progressiveness timeline, and the coverage report.
    """
    coordinator = build_coordinator(
        partitions, threshold, algorithm=algorithm, preference=preference,
        site_config=site_config, latency_model=latency_model,
        edsud_config=edsud_config, limit=limit,
        fault_schedule=fault_schedule, retry_policy=retry_policy,
        batch_size=batch_size, replication_factor=replication_factor,
        replica_manager=replica_manager,
    )
    return coordinator.run()


async def adistributed_skyline(
    partitions: Sequence[Sequence[UncertainTuple]],
    threshold: float,
    algorithm: str = "edsud",
    preference: Optional[Preference] = None,
    site_config: Optional[SiteConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    edsud_config: Optional[EDSUDConfig] = None,
    limit: Optional[int] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    batch_size: int = 1,
    replication_factor: int = 1,
    replica_manager: Optional[ReplicaManager] = None,
) -> RunResult:
    """Awaitable twin of :func:`distributed_skyline`.

    Same assembly, same knobs, same RunResult — but the query is driven
    through :meth:`~repro.distributed.coordinator.Coordinator.asteps`,
    so every coordinator→site RPC is awaited on the caller's event loop
    and the answer is bit-identical to the sync run (the async
    exactness suite pins this).
    """
    coordinator = build_coordinator(
        partitions, threshold, algorithm=algorithm, preference=preference,
        site_config=site_config, latency_model=latency_model,
        edsud_config=edsud_config, limit=limit,
        fault_schedule=fault_schedule, retry_policy=retry_policy,
        batch_size=batch_size, replication_factor=replication_factor,
        replica_manager=replica_manager,
    )
    async for _ in coordinator.asteps():
        pass
    return await coordinator.afinish()
