"""What only the ``"table"`` kernel has: one lazily built table, shared.

Everything a coordinator can observe of ``SiteConfig(kernel="table")``
is pinned by the kernel contract in ``test_site_kernels.py``; here are
the two facts about the :class:`~repro.core.partition_index.
PartitionIndex` itself — forks share one table zero-copy, and building
it ahead of time or on first use gives the same answers.
"""

from __future__ import annotations

import pytest

from repro.distributed.site import LocalSite, SiteConfig

from ..conftest import make_random_database
from .test_site_kernels import TOL
from .test_site_kernels import drain as _drain

TABLE = SiteConfig(kernel="table")


class TestForkSharing:
    def test_forks_share_one_table_zero_copy(self):
        db = make_random_database(100, 3, seed=33, grid=6)
        template = LocalSite(0, db, config=TABLE)
        template.build_all_probs_table()
        f1, f2 = template.fork(), template.fork()
        assert f1.kernel is f2.kernel is template.kernel
        assert f1.kernel.table() is template.kernel.table()
        assert f1.prepare(0.3) == f2.prepare(0.3)

    def test_lazy_build_and_prebuild_agree(self):
        db = make_random_database(90, 3, seed=35, grid=6)
        lazy = LocalSite(0, db, config=TABLE)
        built = LocalSite(0, db, config=TABLE)
        built.build_all_probs_table()
        assert built.build_all_probs_table() is built.kernel.table()
        assert lazy.prepare(0.3) == built.prepare(0.3)
        assert _drain(lazy) == pytest.approx(_drain(built), abs=TOL)
