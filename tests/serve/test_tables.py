"""Serving with all-probabilities tables keeps the exactness contract.

``SiteConfig(kernel="table")`` swaps every
site's per-candidate Eq. 3 arithmetic for the partitioned table, and
the serving layer shares one table per host template across session
forks.  The headline contract must survive unchanged: every served
session is byte-identical — answer, emission order, bandwidth bill,
message counts — to the same spec run solo on fresh table-enabled
sites, and to the plain vectorized path within 1e-9.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

import pytest

from repro.core.dominance import Preference
from repro.distributed.query import distributed_skyline
from repro.distributed.runner import RunResult
from repro.distributed.site import SiteConfig
from repro.serve import AdmissionPolicy, QuerySpec, SkylineService

from ..conftest import make_random_database

SITES = 4
DB = make_random_database(200, 3, seed=61)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]
TABLE = SiteConfig(kernel="table")


def _solo(spec: QuerySpec, config: Optional[SiteConfig] = TABLE) -> RunResult:
    return distributed_skyline(
        PARTITIONS,
        spec.threshold,
        algorithm=spec.algorithm,
        preference=spec.preference,
        limit=spec.limit,
        batch_size=spec.batch_size,
        site_config=config,
    )


def _fingerprint(result: RunResult) -> Dict[str, object]:
    return {
        "answer": [(m.key, m.probability) for m in result.answer],
        "emissions": [
            (e.key, e.global_probability, e.tuples_transmitted)
            for e in result.progress.events
        ],
        "tuples": result.stats.tuples_transmitted,
        "messages": result.stats.messages,
        "by_kind": dict(result.stats.by_kind),
    }


def _serve_all(specs: List[QuerySpec]) -> List[Optional[RunResult]]:
    async def drive() -> List[Optional[RunResult]]:
        policy = AdmissionPolicy(max_inflight=len(specs), max_queued=len(specs))
        async with SkylineService(
            PARTITIONS, policy=policy, site_config=TABLE
        ) as service:
            sessions = [await service.submit(spec) for spec in specs]
            await service.drain()
        return [session.result for session in sessions]

    return asyncio.run(drive())


def test_served_table_sessions_match_their_solo_runs():
    specs = [
        QuerySpec(threshold=0.3, algorithm="dsud"),
        QuerySpec(threshold=0.5, algorithm="edsud"),
        QuerySpec(threshold=0.4, algorithm="dsud", limit=5),
        QuerySpec(
            threshold=0.35, algorithm="dsud", preference=Preference(subspace=(0, 2))
        ),
    ]
    served = _serve_all(specs)
    for spec, result in zip(specs, served):
        assert result is not None, f"{spec} did not finish"
        assert _fingerprint(result) == _fingerprint(_solo(spec)), spec


def test_table_answers_match_plain_vectorized_answers():
    """The table changes the arithmetic path, never the answer."""
    for threshold in (0.3, 0.6):
        spec = QuerySpec(threshold=threshold, algorithm="dsud")
        with_table = _solo(spec)
        plain = _solo(spec, config=SiteConfig(kernel="columnar"))
        got = {k: p for k, p in _fingerprint(with_table)["answer"]}
        want = {k: p for k, p in _fingerprint(plain)["answer"]}
        assert set(got) == set(want)
        for key, p in got.items():
            assert p == pytest.approx(want[key], abs=1e-9)


def test_concurrent_identical_specs_share_tables_and_stay_identical():
    spec = QuerySpec(threshold=0.4, algorithm="dsud")
    served = _serve_all([spec, spec, spec])
    prints = [_fingerprint(r) for r in served if r is not None]
    assert len(prints) == 3
    assert prints[0] == prints[1] == prints[2] == _fingerprint(_solo(spec))
