"""A committed golden for what one ``LocalSite`` computes, per kernel.

For two seeded partitions (one under a subspace/max preference) and each
of the three ``SiteConfig.kernel`` values, ``golden_site.json`` pins the
``float.hex()`` of the ``prepare`` order and probabilities, of ``probe``
and ``probe_batch`` over a fixed foreign set, of floored Eq. 3 values,
the prune counts of a fixed feedback sequence — and all of it again
after one insert and one delete.  The golden was recorded at commit
cc522e3, before ``LocalSite`` asked a ``SiteKernel`` for its arithmetic
(four independent ``SiteConfig`` switches then spelled the same five
configurations), so it is an independent witness that the refactor
moved no bit on any kernel.  It then held a fifth kernel, ``"grid"``;
its two cells were deleted with that kernel and the eight left were not
re-recorded.  The ``"table"`` kernel's two cells went the same way, and
the six left were again not re-recorded.

Re-record (only for a deliberate arithmetic change)::

    PYTHONPATH=src python -m tests.distributed.test_golden_site
"""

import json
from pathlib import Path

import pytest

from repro.core.dominance import Direction, Preference
from repro.core.tuples import UncertainTuple
from repro.distributed.site import LocalSite, SiteConfig

from ..conftest import make_random_database

GOLDEN = Path(__file__).with_name("golden_site.json")

Q = 0.1
KERNELS = ("prtree", "columnar", "scalar")
CASES = {
    "full-3d": (make_random_database(120, 3, seed=41, grid=12), None),
    "subspace-max-4d": (
        make_random_database(90, 4, seed=42, grid=20),
        Preference(
            directions=(Direction.MIN, Direction.MIN, Direction.MAX, Direction.MIN),
            subspace=(0, 2),
        ),
    ),
}
CELLS = [f"{case}/{kernel}" for case in CASES for kernel in KERNELS]


def _foreign(preference, d):
    """Probe tuples no partition stores, from the good corner outwards.

    The first ones dominate most of the queue (feedback that prunes),
    the last ones are dominated by most of the partition (small Eq. 9
    factors); a ``max`` dimension counts its coordinate from the top.
    """
    steps = ((-0.5, 0.6), (1.5, 0.45), (-1.0, 0.7), (2.5, 0.6), (6.5, 0.7))
    top = 19.0
    out = []
    for i, (offset, p) in enumerate(steps):
        values = [offset + (j % 2) for j in range(d)]
        if preference is not None and preference.directions is not None:
            values = [
                top - v if direction is Direction.MAX else v
                for v, direction in zip(values, preference.directions)
            ]
        out.append(UncertainTuple(90_000 + i, tuple(values), p))
    return out


def _drain(site):
    return [
        [q.key, q.local_probability.hex()]
        for q in iter(site.pop_representative, None)
    ]


def _observe(site, stored):
    foreign = _foreign(site.preference, len(stored[0].values))
    seen = {"prepared": site.prepare(Q), "pops": _drain(site)}
    seen["probe"] = [site.probe(t).hex() for t in foreign]
    seen["probe_batch"] = [f.hex() for f in site.probe_batch(foreign)]
    seen["floored"] = [
        site.local_skyline_probability(t, floor=Q).hex() for t in stored[:10] + stored[-2:]
    ]
    site.prepare(Q)
    replies = [site.probe_and_prune(t) for t in foreign[:3]]
    batch = site.probe_and_prune_batch(foreign[3:])
    seen["pruned"] = [r.pruned for r in replies] + [batch.pruned]
    seen["queue_remaining"] = [r.queue_remaining for r in replies] + [
        batch.queue_remaining
    ]
    seen["pops_after_feedback"] = _drain(site)
    seen["pruned_total"] = site.pruned_total
    return seen


def observations(cell, config_for=lambda kernel: SiteConfig(kernel=kernel)):
    """One cell of the golden: a fresh site, then the same site updated."""
    case, kernel = cell.split("/")
    db, preference = CASES[case]
    site = LocalSite(0, db, preference, config_for(kernel))
    before = _observe(site, db)
    d = len(db[0].values)
    fresh = UncertainTuple(70_000, tuple(0.0 for _ in range(d)), 0.4)
    site.insert_tuple(fresh)
    site.delete_tuple(db[3].key)
    after = _observe(site, [t for t in db if t.key != db[3].key] + [fresh])
    return {"fresh": before, "after_update": after}


@pytest.mark.parametrize("cell", CELLS)
def test_site_matches_the_recorded_golden(cell):
    assert observations(cell) == json.loads(GOLDEN.read_text())[cell]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({cell: observations(cell) for cell in CELLS}, indent=1) + "\n"
    )
