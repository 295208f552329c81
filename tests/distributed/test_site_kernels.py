"""One contract for every ``SiteKernel``, checked against the scalar oracle.

``SiteConfig.kernel`` picks what answers a site's arithmetic; nothing a
coordinator can observe may depend on the pick.  Each case below runs
once per kernel: the ``prepare``/pop sequence, single and batched
probes, feedback pruning, §5.4 updates, fork isolation and
``fast_forward`` all match the pure-Python ``"scalar"`` kernel within
1e-9 (the kernels multiply in different orders), and a fork matches a
*fresh site on the same kernel* bit for bit.  After a §5.4 update that
stays bitwise for the flat kernels, which fold in the stored order; a
PR-tree updated in place is shaped differently from one rebuilt, folds
in a different order, and agrees to 1e-9.

The last section pins the shape of the design rather than its numbers:
``SiteConfig`` spells three kernels and two switches and refuses any
other (the retired ``"grid"`` and ``"table"`` kernels and the
``max_entries`` field among them), ``config.kernel`` has exactly one reader, and ``LocalSite``
never asks which kernel it holds.
"""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.dominance import Preference
from repro.core.tuples import UncertainTuple
from repro.distributed.site import KERNELS, LocalSite, SiteConfig
from repro.stream import CountWindow, StreamSite

from ..conftest import make_random_database
from ..core.test_kernels import database_and_preference

TOL = 1e-9
Q = 0.3
AGAINST_ORACLE = [k for k in KERNELS if k != "scalar"]


def site(kernel, db, preference=None):
    return LocalSite(0, db, preference, SiteConfig(kernel=kernel))


def drain(s):
    return [(q.key, q.local_probability) for q in iter(s.pop_representative, None)]


def same_as_rebuilt(kernel, got, want):
    """An updated site against one built fresh over the updated data."""
    if kernel in ("columnar", "scalar"):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=TOL)


def assert_same_protocol(got, ref, threshold, d):
    """prepare → one pruning feedback → pops, observed identically."""
    assert got.prepare(threshold) == ref.prepare(threshold)
    feedback = UncertainTuple(88_888, tuple(2.0 for _ in range(d)), 0.9)
    rg, rr = got.probe_and_prune(feedback), ref.probe_and_prune(feedback)
    assert rg.factor == pytest.approx(rr.factor, abs=TOL)
    assert (rg.pruned, rg.queue_remaining) == (rr.pruned, rr.queue_remaining)
    pg, pr = drain(got), drain(ref)
    assert [k for k, _ in pg] == [k for k, _ in pr]
    assert [p for _, p in pg] == pytest.approx([p for _, p in pr], abs=TOL)
    assert got.pruned_total == ref.pruned_total


# ----------------------------------------------------------------------
# against the scalar oracle


@pytest.mark.parametrize("kernel", AGAINST_ORACLE)
@given(
    database_and_preference(),
    st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
)
@settings(max_examples=50)
def test_full_protocol_matches_the_oracle(kernel, case, threshold):
    d, db, pref = case
    assert_same_protocol(site(kernel, db, pref), site("scalar", db, pref), threshold, d)


@pytest.mark.parametrize("kernel", AGAINST_ORACLE)
@given(database_and_preference())
@settings(max_examples=50)
def test_probes_match_the_oracle(kernel, case):
    d, db, pref = case
    got, ref = site(kernel, db, pref), site("scalar", db, pref)
    foreign = UncertainTuple(99_999, tuple(3.0 for _ in range(d)), 0.7)
    want = ref.probe(foreign)
    assert got.probe(foreign) == pytest.approx(want, abs=TOL)
    assert got.probe_batch([foreign, foreign]) == pytest.approx([want, want], abs=TOL)
    assert got.probe_batch([]) == []
    for t in db[:8]:
        assert got.local_skyline_probability(t) == pytest.approx(
            ref.local_skyline_probability(t), abs=TOL
        )


@pytest.mark.parametrize("kernel", KERNELS)
@given(database_and_preference(), st.data())
@settings(max_examples=50)
def test_batched_and_single_probes_agree_bit_for_bit(kernel, case, data):
    """A forked template keeps one factor map for ``probe`` and
    ``probe_batch``: that is sound only if the two agree per tuple."""
    d, db, pref = case
    s = site(kernel, db, pref)
    point = st.lists(st.integers(min_value=0, max_value=6).map(float), min_size=d, max_size=d)
    rows = data.draw(st.lists(st.tuples(point, st.sampled_from([0.3, 1.0])), max_size=12))
    foreign = [UncertainTuple(90_000 + i, tuple(v), p) for i, (v, p) in enumerate(rows)]
    ts = foreign + db[:6] + foreign[:2]  # stored tuples exclude themselves; repeats
    assert [f.hex() for f in s.probe_batch(ts)] == [s.probe(t).hex() for t in ts]


@pytest.mark.parametrize("kernel", AGAINST_ORACLE)
@pytest.mark.parametrize(
    "n, d, seed, grid, preference",
    [(120, 3, 31, 6, None), (80, 4, 32, 5, Preference(subspace=(0, 2)))],
    ids=["full-3d", "subspace-4d"],
)
def test_updates_keep_the_kernel_current(kernel, n, d, seed, grid, preference):
    db = make_random_database(n, d, seed=seed, grid=grid)
    got, ref = site(kernel, db, preference), site("scalar", db, preference)
    assert_same_protocol(got, ref, Q, d)
    fresh = UncertainTuple(5_000, tuple(1.0 for _ in range(d)), 0.8)
    for s in (got, ref):
        s.insert_tuple(fresh)
        s.delete_tuple(db[7].key)
    assert_same_protocol(got, ref, Q, d)


@pytest.mark.parametrize("kernel", KERNELS)
def test_fast_forward_skips_exactly_the_delivered_keys(kernel):
    db = make_random_database(150, 3, seed=36, grid=8)
    got, ref = site(kernel, db), site("scalar", db)
    assert got.prepare(Q) == ref.prepare(Q)
    order = [k for k, _ in drain(ref)]
    assert len(order) > 4
    assert got.fast_forward(order[:3] + [123_456]) == 3
    assert [k for k, _ in drain(got)] == order[3:]
    assert got.pruned_total == 0  # consumed, not pruned


# ----------------------------------------------------------------------
# forks and §5.4 updates, against a fresh site on the same kernel


@pytest.mark.parametrize("kernel", KERNELS)
def test_forks_share_the_kernel_and_no_query_state(kernel):
    db = make_random_database(100, 3, seed=33, grid=6)
    template, fresh = site(kernel, db), site(kernel, db)
    template.set_replica({db[0].key: (db[0], 0.5)})
    a, b = template.fork(), template.fork()
    assert a.kernel is b.kernel is template.kernel
    assert a.database is template.database
    assert a.sky_h_replica == {}
    for s in (a, b, fresh):
        s.prepare(Q)
    assert a.probe_and_prune(UncertainTuple(88_888, (0.0, 0.0, 0.0), 0.95)).pruned > 0
    a.pop_representative()
    # b saw neither a's feedback nor its pops, and equals a fresh site.
    assert b.pruned_total == 0
    assert drain(b) == drain(fresh)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_shared_site_refuses_writes(kernel):
    db = make_random_database(100, 3, seed=34, grid=6)
    foreign = [
        UncertainTuple(90_000, (3.0, 3.0, 3.0), 0.7),
        UncertainTuple(90_001, (1.0, 4.0, 2.0), 0.4),
    ]
    dominating = UncertainTuple(5_001, (0.0, 0.0, 0.0), 0.9)

    def bits(s):
        probes = [s.probe(t).hex() for t in foreign] + [f.hex() for f in s.probe_batch(foreign)]
        return dict(s.database), probes, s.prepare(Q), drain(s)

    def refuses(s):
        before = bits(s)
        with pytest.raises(RuntimeError, match="refuses updates"):
            s.insert_tuple(dominating)
        with pytest.raises(RuntimeError, match="refuses updates"):
            s.delete_tuple(db[0].key)
        assert bits(s) == before

    template = site(kernel, db)
    early = template.fork()
    for s in (template, early, early.fork()):
        refuses(s)


def _observed(s, foreign):
    return s.prepare(Q), drain(s), s.probe(foreign), s.probe_batch([foreign, foreign])


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_wrong_dimensionality_insert_changes_nothing(kernel):
    db = make_random_database(60, 2, seed=37, grid=8)
    foreign = UncertainTuple(90_000, (4.0, 4.0), 0.7)
    s = site(kernel, db)
    before = _observed(s, foreign)
    with pytest.raises(ValueError, match="dimensionality"):
        s.insert_tuple(UncertainTuple(9_000, (0.0, 0.0, 0.0), 0.9))
    assert not s.contains(9_000)
    assert _observed(s, foreign) == before


def test_a_stream_site_refuses_a_wrong_dimensionality_arrival():
    arrivals = make_random_database(12, 2, seed=38, grid=8)
    seen, twin = StreamSite(0, CountWindow(8)), StreamSite(0, CountWindow(8))
    for s in (seen, twin):
        s.register_group(0, Q)
        for t in arrivals[:10]:
            s.ingest(t)
    with pytest.raises(ValueError, match="dimensionality"):
        seen.ingest(UncertainTuple(9_000, (0.0, 0.0, 0.0), 0.9))
    assert seen.live_tuples() == twin.live_tuples()
    for s in (seen, twin):
        s.ingest(arrivals[10])
    assert seen.close_epoch(0) == twin.close_epoch(0)


# ----------------------------------------------------------------------
# chosen once


def test_site_config_spells_three_kernels_and_two_switches():
    names = [f.name for f in dataclasses.fields(SiteConfig)]
    assert names == ["kernel", "feedback_pruning", "store_products"]
    assert KERNELS == ("prtree", "columnar", "scalar")
    assert SiteConfig().kernel == "prtree"
    for unknown in ("btree", "grid", "table"):
        with pytest.raises(ValueError) as refused:
            site(unknown, make_random_database(5, 2, seed=10))
        assert all(repr(name) in str(refused.value) for name in KERNELS)
    with pytest.raises(TypeError):
        SiteConfig(max_entries=8)


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _config_reads(fn):
    """Names ``x`` read as ``config.x`` / ``<anything>.config.x`` inside ``fn``."""
    reads = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            owner = node.value
            named = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if named == "config":
                reads.append(node.attr)
    return reads


def test_config_kernel_has_exactly_one_reader():
    src = Path(repro.__file__).parent
    readers = [
        f"{path.relative_to(src)}:{fn.name}"
        for path in sorted(src.rglob("*.py"))
        for fn in _functions(ast.parse(path.read_text()))
        if "kernel" in _config_reads(fn)
    ]
    assert readers == ["distributed/site.py:make_kernel"]


def test_local_site_never_asks_which_kernel_it_holds():
    tree = ast.parse(Path(repro.distributed.site.__file__).read_text())
    (local_site,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "LocalSite"
    ]
    for fn in _functions(local_site):
        assert set(_config_reads(fn)) <= {"feedback_pruning"}, fn.name
        calls = [n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        assert "isinstance" not in calls, fn.name
