"""Client CPU per site RPC through the awaiting pump: a micro-benchmark.

Four site-server processes (no injected delay) over an anticorrelated
n = 300, d = 3 database, each site prepared at q = 0.3 over one standing
connection; then a toy script of 1 500 fan-outs, each one
``probe_and_prune`` per site, run through ``ScriptEngine._apump`` — the
path ``Coordinator.asteps()`` takes over ``AsyncRemoteSiteProxy``.
Prints the best of seven runs' ``time.thread_time()`` per RPC: the
event-loop thread's own CPU, which a busy host inflates far less than
it does the wall clock.  Not a pytest module; run it directly::

    PYTHONPATH=src python benchmarks/rpc_cpu.py
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Iterator, List, Sequence, Tuple

from repro.data.workload import make_synthetic_workload
from repro.distributed.engine import ScriptEngine, _Fanout, _Rpc
from repro.fault.fsm import ClusterHealth
from repro.net.aio import connect_async_sites
from repro.net.sockets import host_sites_in_processes
from repro.net.stats import NetworkStats

SITES, FANOUTS, RUNS = 4, 1500, 7


def toy(proxies: Sequence[Any], probes: Sequence[Any]) -> Iterator[_Fanout]:
    """One ``probe_and_prune`` per site, ``FANOUTS`` times over."""
    for _ in range(FANOUTS):
        yield _Fanout(tuple((_Rpc(p, "probe_and_prune", (t,)),) for p, t in zip(proxies, probes)))


async def cpu_per_rpc(addresses: List[Tuple[int, Tuple[str, int]]], probes: Sequence[Any]) -> float:
    proxies = await connect_async_sites(addresses)
    try:
        for proxy in proxies:
            await proxy.prepare(0.3)
        engine = ScriptEngine(NetworkStats(), ClusterHealth(range(SITES)))
        best = float("inf")
        for _ in range(RUNS):
            start = time.thread_time()
            async for _ in engine._apump(toy(proxies, probes)):
                pass
            best = min(best, time.thread_time() - start)
        return best / (FANOUTS * SITES)
    finally:
        for proxy in proxies:
            await proxy.close()


def main() -> None:
    partitions = make_synthetic_workload(
        "anticorrelated", n=300, d=3, sites=SITES, seed=1
    ).partitions
    # Each site probes a tuple of its neighbour's: a foreign Eq. 9 probe.
    probes = [partitions[(i + 1) % SITES][0] for i in range(SITES)]
    with host_sites_in_processes(partitions) as cluster:
        per_rpc = asyncio.run(cpu_per_rpc(cluster.addresses, probes))
    print(
        f"client CPU per RPC: {per_rpc * 1e6:.1f} us "
        f"({FANOUTS} fan-outs x {SITES} sites, best of {RUNS} runs)"
    )


if __name__ == "__main__":
    main()
