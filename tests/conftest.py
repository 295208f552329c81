"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import asyncio
import os
import random
from typing import List, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.tuples import UncertainTuple
from repro.net.aio import connect_async_sites

# Profiles: "ci" (default) disables the wall-clock deadline so runs on
# loaded machines never flake; "thorough" raises the example budget for
# overnight soak testing.  Select via HYPOTHESIS_PROFILE=thorough.
settings.register_profile("ci", deadline=None)
settings.register_profile("thorough", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

def probabilities() -> st.SearchStrategy[float]:
    """Existential probabilities in (0, 1]."""
    return st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def coordinates(max_value: float = 10.0) -> st.SearchStrategy[float]:
    """Attribute values on a small grid so dominance ties actually occur."""
    return st.integers(min_value=0, max_value=int(max_value)).map(float)


def uncertain_tuples(
    dimensionality: int, start_key: int = 0
) -> st.SearchStrategy[List[UncertainTuple]]:
    """Lists of well-formed uncertain tuples with unique keys."""

    def build(rows):
        return [
            UncertainTuple(start_key + i, tuple(values), p)
            for i, (values, p) in enumerate(rows)
        ]

    row = st.tuples(
        st.lists(coordinates(), min_size=dimensionality, max_size=dimensionality),
        probabilities(),
    )
    return st.lists(row, min_size=0, max_size=24).map(build)


def small_databases(
    min_dim: int = 1, max_dim: int = 4
) -> st.SearchStrategy[List[UncertainTuple]]:
    """Databases of random (but consistent) dimensionality."""
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(uncertain_tuples)


# ----------------------------------------------------------------------
# plain fixtures
# ----------------------------------------------------------------------

def make_random_database(
    n: int,
    d: int,
    seed: int,
    grid: Optional[int] = None,
    start_key: int = 0,
) -> List[UncertainTuple]:
    """Seeded random database; ``grid`` quantizes values to force ties."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if grid:
            values = tuple(float(rng.randrange(grid)) for _ in range(d))
        else:
            values = tuple(rng.random() for _ in range(d))
        out.append(
            UncertainTuple(start_key + i, values, rng.random() * 0.99 + 0.01)
        )
    return out


def query_over_tcp(addresses, build, **dial):
    """Run ``build(proxies)`` to completion over TCP clients of ``addresses``.

    The proxies are dialed with :func:`connect_async_sites` (``dial``
    goes to it) and the coordinator is driven by ``asteps()`` on a fresh
    event loop; its result is returned and the proxies are closed.
    """

    async def scenario():
        proxies = await connect_async_sites(addresses, **dial)
        try:
            coordinator = build(proxies)
            async for _ in coordinator.asteps():
                pass
            return await coordinator.afinish()
        finally:
            for proxy in proxies:
                await proxy.close()

    return asyncio.run(scenario())


@pytest.fixture
def small_db():
    """A tiny fixed database used by several exact-value tests."""
    return make_random_database(30, 2, seed=7, grid=8)


@pytest.fixture
def medium_db():
    return make_random_database(300, 3, seed=11)
