"""One-call workload assembly for experiments, examples, and tests.

A :class:`Workload` bundles everything one run of a distributed skyline
experiment needs: the global uncertain database, its partition onto
``m`` sites, and the dominance preference — all derived from a single
seed so every algorithm in a comparison sees byte-identical data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple, tuples_from_arrays
from .nyse import attach_uncertainty, generate_nyse_trades, nyse_preference
from .partition import partition_uniform
from .probabilities import generate_probabilities
from .synthetic import generate_values

__all__ = [
    "Workload",
    "make_synthetic_workload",
    "make_nyse_workload",
    "QueryDraw",
    "sample_query_mix",
    "StreamArrival",
    "make_synthetic_stream",
]


@dataclass
class Workload:
    """A ready-to-run distributed skyline problem instance."""

    name: str
    global_database: List[UncertainTuple]
    partitions: List[List[UncertainTuple]]
    preference: Optional[Preference] = None
    seed: Optional[int] = None

    @property
    def cardinality(self) -> int:
        return len(self.global_database)

    @property
    def sites(self) -> int:
        return len(self.partitions)

    @property
    def dimensionality(self) -> int:
        return self.global_database[0].dimensionality if self.global_database else 0

    def describe(self) -> str:
        return (
            f"{self.name}: N={self.cardinality} d={self.dimensionality} "
            f"m={self.sites} seed={self.seed}"
        )

    def save(self, directory) -> None:
        """Persist the workload — partitions included — for exact reruns.

        Writes ``manifest.json`` (name, seed, preference, site count)
        plus one JSONL relation per site; :meth:`load` restores a
        byte-identical workload, so two machines can benchmark the same
        placement, not merely the same seed.
        """
        import json
        from pathlib import Path

        from .io import save_tuples_jsonl

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "name": self.name,
            "seed": self.seed,
            "sites": self.sites,
            "preference": self.preference.to_dict() if self.preference else None,
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        for i, partition in enumerate(self.partitions):
            save_tuples_jsonl(directory / f"site_{i}.jsonl", partition)

    @classmethod
    def load(cls, directory) -> "Workload":
        """Restore a workload written by :meth:`save`."""
        import json
        from pathlib import Path

        from ..core.dominance import Preference
        from .io import load_tuples_jsonl

        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        partitions = [
            load_tuples_jsonl(directory / f"site_{i}.jsonl")
            for i in range(int(manifest["sites"]))
        ]
        preference = (
            Preference.from_dict(manifest["preference"])
            if manifest.get("preference")
            else None
        )
        return cls(
            name=str(manifest["name"]),
            global_database=[t for p in partitions for t in p],
            partitions=partitions,
            preference=preference,
            seed=manifest.get("seed"),
        )


def make_synthetic_workload(
    distribution: str = "independent",
    n: int = 10_000,
    d: int = 3,
    sites: int = 10,
    probability_kind: str = "uniform",
    probability_mean: float = 0.5,
    probability_std: float = 0.2,
    seed: Optional[int] = None,
) -> Workload:
    """Build the paper's synthetic setting at any scale.

    Mirrors §7's recipe: draw values from ``distribution``, attach
    occurrence probabilities of ``probability_kind``, then scatter the
    tuples uniformly over ``sites`` equal partitions.  ``seed=None``
    means seed 0 — every workload is replayable by construction.
    """
    seed = 0 if seed is None else seed
    rng = np.random.default_rng(seed)
    values = generate_values(distribution, n, d, rng=rng)
    probs = generate_probabilities(
        probability_kind, n, rng=rng, mean=probability_mean, std=probability_std
    )
    database = tuples_from_arrays(values, probs)
    partitions = partition_uniform(database, sites, rng=random.Random(seed + 1))
    return Workload(
        name=f"synthetic-{distribution}-{probability_kind}",
        global_database=database,
        partitions=partitions,
        preference=None,
        seed=seed,
    )


@dataclass(frozen=True)
class QueryDraw:
    """One sampled query: the knobs a multi-query workload varies.

    Transport-agnostic on purpose — ``repro serve`` turns a draw into
    a :class:`repro.serve.QuerySpec`, a future load test could
    turn the same draw into CLI invocations — so the *mix* is pinned
    by seed independently of who consumes it.  ``subspace`` is a
    sorted dimension tuple for a §4 subspace preference, or ``None``
    for the full space.
    """

    threshold: float
    algorithm: str = "dsud"
    limit: Optional[int] = None
    subspace: Optional[Tuple[int, ...]] = None
    batch_size: int = 1
    tenant: str = "default"


def sample_query_mix(
    n: int,
    d: int,
    seed: Optional[int] = None,
    thresholds: Sequence[float] = (0.3, 0.4, 0.5, 0.6),
    algorithms: Sequence[str] = ("dsud", "edsud"),
    limit_fraction: float = 0.3,
    limits: Sequence[int] = (3, 5, 10),
    subspace_fraction: float = 0.25,
    batch_sizes: Sequence[int] = (1, 1, 4),
    tenants: Sequence[str] = ("default",),
) -> List[QueryDraw]:
    """Draw a seed-deterministic stochastic mix of ``n`` queries.

    The shared vocabulary of ``repro serve`` and future load tests:
    one seed, one mix — byte-identical on every machine (the draws use
    :class:`random.Random`, whose algorithm is pinned by the language).
    Each query independently draws a threshold, an algorithm, and a
    batch size uniformly from the given pools; becomes a top-k query
    with probability ``limit_fraction``; and with probability
    ``subspace_fraction`` evaluates dominance on a random ``≥ 2``-dim
    subspace of the ``d`` dimensions (skipped when ``d < 3`` — a
    1-dim subspace degenerates).  ``seed=None`` means seed 0, matching
    the workload builders above.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d!r}")
    seed = 0 if seed is None else seed
    rng = random.Random(seed)
    draws: List[QueryDraw] = []
    for _ in range(n):
        threshold = rng.choice(list(thresholds))
        algorithm = rng.choice(list(algorithms))
        batch_size = rng.choice(list(batch_sizes))
        limit = (
            rng.choice(list(limits)) if rng.random() < limit_fraction else None
        )
        subspace: Optional[Tuple[int, ...]] = None
        if d >= 3 and rng.random() < subspace_fraction:
            k = rng.randrange(2, d)
            subspace = tuple(sorted(rng.sample(range(d), k)))
        tenant = rng.choice(list(tenants))
        draws.append(
            QueryDraw(
                threshold=threshold,
                algorithm=algorithm,
                limit=limit,
                subspace=subspace,
                batch_size=batch_size,
                tenant=tenant,
            )
        )
    return draws


@dataclass(frozen=True)
class StreamArrival:
    """One event of a distributed uncertain stream.

    ``site_id`` names the ingesting site, ``stamp`` is a non-decreasing
    global arrival time (seconds).  A schedule of arrivals is the
    transport-agnostic input of the continuous-query subsystem: the
    stream bench, the ``stream`` CLI subcommand, and the epoch-
    equivalence tests all replay the same seeded schedules.
    """

    site_id: int
    tuple: UncertainTuple
    stamp: float


def make_synthetic_stream(
    distribution: str = "independent",
    n: int = 1_000,
    d: int = 3,
    sites: int = 4,
    probability_kind: str = "uniform",
    probability_mean: float = 0.5,
    probability_std: float = 0.2,
    mean_interarrival: float = 1.0,
    seed: Optional[int] = None,
) -> List[StreamArrival]:
    """Draw a seed-deterministic schedule of ``n`` stream arrivals.

    The values and occurrence probabilities come from the same §7
    generators as :func:`make_synthetic_workload`; each tuple is then
    assigned a uniformly random ingesting site and a Poisson-process
    arrival time (exponential inter-arrival gaps of mean
    ``mean_interarrival`` seconds).  Stamps are strictly increasing, so
    any window kind accepts the schedule.  ``seed=None`` means seed 0 —
    one seed, one stream, byte-identical on every machine.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    if sites < 1:
        raise ValueError(f"sites must be positive, got {sites!r}")
    if mean_interarrival <= 0:
        raise ValueError(
            f"mean_interarrival must be positive, got {mean_interarrival!r}"
        )
    seed = 0 if seed is None else seed
    rng = np.random.default_rng(seed)
    values = generate_values(distribution, n, d, rng=rng)
    probs = generate_probabilities(
        probability_kind, n, rng=rng, mean=probability_mean, std=probability_std
    )
    database = tuples_from_arrays(values, probs)
    schedule_rng = random.Random(seed + 1)
    clock = 0.0
    arrivals: List[StreamArrival] = []
    for t in database:
        clock += schedule_rng.expovariate(1.0 / mean_interarrival)
        site_id = schedule_rng.randrange(sites)
        arrivals.append(StreamArrival(site_id=site_id, tuple=t, stamp=clock))
    return arrivals


def make_nyse_workload(
    n: int = 10_000,
    sites: int = 10,
    probability_kind: str = "uniform",
    probability_mean: float = 0.5,
    probability_std: float = 0.2,
    seed: Optional[int] = None,
) -> Workload:
    """Build the §7.4 setting on the synthetic NYSE substitute trace.

    ``seed=None`` means seed 0, as in :func:`make_synthetic_workload`.
    """
    seed = 0 if seed is None else seed
    rng = np.random.default_rng(seed)
    trades = generate_nyse_trades(n, rng=rng)
    database = attach_uncertainty(
        trades, kind=probability_kind, rng=rng, mean=probability_mean, std=probability_std
    )
    partitions = partition_uniform(database, sites, rng=random.Random(seed + 1))
    return Workload(
        name=f"nyse-{probability_kind}",
        global_database=database,
        partitions=partitions,
        preference=nyse_preference(),
        seed=seed,
    )
