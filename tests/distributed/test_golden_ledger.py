"""A committed golden ledger for the coordinator's protocol behaviour.

Every cell of dsud/edsud/naive × ``batch_size`` {1, 4} × {fault-free,
crash-and-recover chaos under a retry policy, rf = 2 failover} is
pinned against ``golden_ledger.json``: answer keys, bit-exact
probabilities and emission order, the full message books, the fault and
replication counters, and the exact sequence of RPCs that reached each
site.  The golden was recorded at commit 8098296 — before the k = 1
broadcast twin, the sync wrappers and the broadcast pool were deleted —
so it is an independent witness, not a comparison of two sibling code
paths.  Both pumps (``run()`` and ``asteps()``) must reproduce it.

``rpcs_by_site`` — the per-site projection of ``rpcs`` — was added at
commit bcf9eaf, before fan-outs became overlapped lanes and refill pops
began to ride the broadcast: a site must see the same calls in the same
order whatever the pumps do, so that field never moved.  The global
interleave ``rpcs`` was re-recorded in the six dsud/edsud ``k4`` cells
only (an origin's pop now follows its probe share instead of every
site's); under *awaitable* endpoints (``overlapped`` below) it is the
one field that depends on the event loop and is not compared.

Re-record (only for a deliberate protocol change)::

    PYTHONPATH=src python -m tests.distributed.test_golden_ledger
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.naive import NaiveLocalSkylines
from repro.distributed.site import LocalSite
from repro.fault.injection import FaultyEndpoint
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.net.aio import AsyncLocalEndpoint
from repro.net.transport import RecordingEndpoint
from repro.replica.manager import ReplicaManager

from ..conftest import make_random_database

GOLDEN = Path(__file__).with_name("golden_ledger.json")

Q = 0.25
SITES = 4
VICTIM = 1
ALGORITHMS = {"dsud": DSUD, "edsud": EDSUD, "naive": NaiveLocalSkylines}
BATCH_SIZES = (1, 4)
SCENARIOS = ("fault-free", "crash-recover", "rf2-failover")
CELLS = [
    f"{algorithm}/k{batch_size}/{scenario}"
    for algorithm in ALGORITHMS
    for batch_size in BATCH_SIZES
    for scenario in SCENARIOS
]


def build(cell, outermost=lambda site: site):
    """The coordinator of one cell plus the journal its sites write to."""
    algorithm, batch, scenario = cell.split("/")
    db = make_random_database(120, 3, seed=11)
    log = []
    sites = [
        RecordingEndpoint(LocalSite(i, db[i::SITES]), log=log) for i in range(SITES)
    ]
    kwargs = {"batch_size": int(batch[1:])}
    if scenario != "fault-free":
        # The victim refuses calls 4..9, then answers again.  Faults are
        # injected *outside* the recorder, so the journal lists exactly
        # the calls that reached a site.
        schedule = FaultSchedule(seed=0).crash(VICTIM, at_call=4, until_call=10)
        sites = [FaultyEndpoint(site, schedule) for site in sites]
        kwargs["retry_policy"] = RetryPolicy(
            max_attempts=2, base_backoff=1e-4, max_backoff=1e-3
        )
    if scenario == "rf2-failover":
        kwargs["replica_manager"] = ReplicaManager.provision(sites, 2)
    return ALGORITHMS[algorithm](list(map(outermost, sites)), Q, **kwargs), log


def ledger(result, log):
    stats = result.stats
    return {
        "answer": [f"{m.key} {float(m.probability).hex()}" for m in result.answer],
        "emitted": " ".join(str(e.key) for e in result.progress.events),
        "by_kind": dict(sorted(stats.by_kind.items())),
        "tuples_transmitted": stats.tuples_transmitted,
        "messages": stats.messages,
        "rounds": stats.rounds,
        "iterations": result.iterations,
        "rpc_retries": stats.rpc_retries,
        "rpc_failures": stats.rpc_failures,
        "failovers": stats.failovers,
        "failbacks": stats.failbacks,
        "coverage_exact": result.coverage.complete,
        "down_sites": list(result.coverage.down_sites),
        "transitions": list(result.coverage.transitions),
        "rpcs": " ".join(f"{record.site_id}:{record.method}" for record in log),
        "rpcs_by_site": {
            str(site_id): " ".join(
                record.method for record in log if record.site_id == site_id
            )
            for site_id in sorted({record.site_id for record in log})
        },
    }


def run_sync(cell):
    coordinator, log = build(cell)
    return ledger(coordinator.run(), log)


def run_async(cell, outermost=lambda site: site):
    coordinator, log = build(cell, outermost)

    async def drive():
        async for _ in coordinator.asteps():
            pass
        return await coordinator.afinish()

    return ledger(asyncio.run(drive()), log)


def run_overlapped(cell):
    """``asteps()`` over awaitable endpoints: the lanes really overlap."""
    return run_async(cell, AsyncLocalEndpoint)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)
    # The matrix is only a witness if the faults actually bite.
    assert golden["dsud/k1/crash-recover"]["rpc_retries"] > 0
    assert golden["dsud/k1/rf2-failover"]["failovers"] > 0
    assert golden["edsud/k4/rf2-failover"]["failbacks"] > 0
    assert "probe_and_prune_batch" in golden["dsud/k4/fault-free"]["rpcs"]


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("pump", [run_sync, run_async], ids=["run", "asteps"])
def test_cell_reproduces_the_golden_ledger(golden, cell, pump):
    assert pump(cell) == golden[cell]


@pytest.mark.parametrize("cell", CELLS)
def test_overlapped_lanes_reproduce_all_but_the_global_interleave(golden, cell):
    got, expected = run_overlapped(cell), dict(golden[cell])
    assert sorted(got.pop("rpcs").split()) == sorted(expected.pop("rpcs").split())
    assert got == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({cell: run_sync(cell) for cell in CELLS}, indent=1) + "\n",
        encoding="utf-8",
    )
