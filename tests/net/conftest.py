"""Fixtures shared by the transport suites."""

import pytest

from repro.net.sockets import host_sites

from ..conftest import make_random_database


@pytest.fixture
def cluster():
    """Three TCP-hosted sites over a 240-tuple database: ``(cluster, db)``."""
    db = make_random_database(240, 2, seed=1, grid=10)
    partitions = [db[i::3] for i in range(3)]
    with host_sites(partitions) as c:
        yield c, db
