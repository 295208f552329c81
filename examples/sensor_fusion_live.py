#!/usr/bin/env python
"""Distributed sensor fusion over real TCP sockets, with subspace queries.

The paper motivates uncertain distributed data with sensor networks
whose readings carry confidence scores (§1).  This example fuses
air-quality stations spread over regional gateways: each reading is
(pm25, noise_db, power_mw) with a confidence derived from calibration
age, and an analyst wants the probabilistic skyline of the cleanest /
quietest / cheapest readings.

Unlike the other examples, the sites here are *real TCP servers* on
localhost — each gateway runs behind a socket, and the e-DSUD
coordinator talks the same protocol it would over a WAN
(:mod:`repro.net.sockets` hosts the gateways, :mod:`repro.net.aio`
dials them).  The servers are hosted in plain sync code; only the
queries run on an event loop, through ``asyncio.run``.  The second
query restricts dominance to the (pm25, noise) subspace, the §4
extension.

Run:  python examples/sensor_fusion_live.py
"""

import asyncio
import random

from repro import EDSUD, Preference, UncertainTuple
from repro.net.aio import connect_async_sites
from repro.net.sockets import host_sites

THRESHOLD = 0.4
GATEWAYS = 5
READINGS_PER_GATEWAY = 1_500


def generate_gateway(gateway: int, rng: random.Random) -> list:
    """Readings of one regional gateway: correlated urban conditions."""
    readings = []
    base_pollution = rng.uniform(8.0, 35.0)  # regional background pm2.5
    for i in range(READINGS_PER_GATEWAY):
        pm25 = max(1.0, rng.gauss(base_pollution, 8.0))
        # Louder districts are usually dirtier; power draw is independent.
        noise = max(30.0, rng.gauss(40.0 + pm25 * 0.6, 6.0))
        power = rng.uniform(120.0, 900.0)
        calibration_age_days = rng.expovariate(1.0 / 90.0)
        confidence = max(0.05, min(1.0, 1.0 - calibration_age_days / 400.0))
        readings.append(
            UncertainTuple(
                key=gateway * 1_000_000 + i,
                values=(round(pm25, 1), round(noise, 1), round(power, 1)),
                probability=round(confidence, 3),
            )
        )
    return readings


def show(result, label: str) -> None:
    print(f"\n{label}: {result.summary()}")
    for member in list(result.answer)[:6]:
        pm25, noise, power = member.tuple.values
        gateway = member.tuple.key // 1_000_000
        print(
            f"  gateway {gateway}: pm2.5={pm25:<5g} noise={noise:<5g} dB "
            f"power={power:<5g} mW  P_g-sky={member.probability:.3f}"
        )


async def query(addresses, preference=None):
    """One e-DSUD run over TCP clients of the hosted gateways."""
    proxies = await connect_async_sites(addresses)
    try:
        for proxy in proxies:
            assert await proxy.ping()
        coordinator = EDSUD(proxies, THRESHOLD, preference=preference)
        async for _ in coordinator.asteps():
            pass
        return await coordinator.afinish()
    finally:
        for proxy in proxies:
            await proxy.close()


def main() -> None:
    rng = random.Random(2024)
    partitions = [generate_gateway(g, rng) for g in range(GATEWAYS)]
    print(
        f"{GATEWAYS} gateways x {READINGS_PER_GATEWAY} readings, "
        f"threshold q = {THRESHOLD}"
    )

    # Full-space query over real sockets.
    with host_sites(partitions) as cluster:
        print(f"all {GATEWAYS} TCP site servers up "
              f"(ports {[port for _, (_, port) in cluster.addresses]})")
        result = asyncio.run(query(cluster.addresses))
        show(result, "full-space skyline (pm2.5, noise, power)")

    # Subspace query (§4): the analyst only cares about air and noise.
    subspace = Preference(subspace=(0, 1))
    with host_sites(partitions, preference=subspace) as cluster:
        result = asyncio.run(query(cluster.addresses, preference=subspace))
        show(result, "subspace skyline (pm2.5, noise)")


if __name__ == "__main__":
    main()
