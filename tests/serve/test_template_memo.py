"""A forked template answers each pure site question once, bit for bit.

The first :meth:`LocalSite.fork` gives a template one memo, shared by
every fork: exact Eq.-9 factors keyed by the foreign tuple itself, the
prepared candidate queue per threshold, and each feedback tuple's
Local-Pruning dominance row over that queue.  None of it may change a
bit a coordinator can see, so every case below runs the same script —
mixed hit/miss/duplicate ``probe_batch`` calls, ``probe``, then
``prepare`` → pops, feedback and prunes at two thresholds through
``probe_and_prune`` and ``probe_and_prune_batch`` — against a fresh,
never-forked :class:`LocalSite` over the same partition, on every
kernel, with no preference, a MAX direction and a subspace.  The
memoised side runs on a cold memo, a warm one, a fork of a fork, forks
racing in threads, and the template a :class:`SharedSiteHost` builds
after each write.

The second half pins the memo's lifetime and bound: a written host's
old template and memo are collectable once its sessions are dropped,
the factor map holds at most ``N − |D_i|`` entries per template under a
service's load, and every site that is never forked holds no memo.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.dominance import Direction, Preference
from repro.core.tuples import UncertainTuple
from repro.distributed.query import distributed_skyline
from repro.distributed.site import KERNELS, LocalSite, SiteConfig
from repro.net.sockets import SiteServer
from repro.replica.manager import ReplicaManager
from repro.serve import QuerySpec, SharedSiteHost, SkylineService
from repro.stream import CountWindow, StreamSite

from ..conftest import make_random_database

DB = make_random_database(300, 3, seed=52, grid=12)  # a grid: ties and duplicates
LOCAL, FOREIGN = DB[::3], [t for i, t in enumerate(DB) if i % 3]
PREFERENCES = {
    "min": None,
    "max": Preference(directions=(Direction.MAX, Direction.MIN, Direction.MIN)),
    "subspace": Preference(subspace=(0, 2)),
}
THRESHOLDS = (0.05, 0.3)
#: A tuple sent under a stored key with other values: the memo keys by
#: value, so it must not answer for the stored tuple (probed as well).
IMPOSTOR = UncertainTuple(LOCAL[0].key, (6.0, 6.0, 6.0), 0.5)
#: Dominates most of the partition: after it the queue prunes hard.
DOMINATING = UncertainTuple(90_000, (0.0, 1.0, 0.0), 0.95)


def site(kernel, partition, preference):
    return LocalSite(0, partition, preference, SiteConfig(kernel=kernel))


def script(s, order=1):
    """Everything a session asks a site, as the bits it gets back.

    ``order=-1`` sends the feedback backwards: dominance rows a forward
    run stored under one alive mask then serve another.
    """
    f = FOREIGN
    seen = [
        [x.hex() for x in s.probe_batch([f[0], f[1], f[0], f[2]])],  # a duplicate
        [x.hex() for x in s.probe_batch([f[1], f[3], f[3], f[4], f[0]])],  # hits and misses
        [x.hex() for x in s.probe_batch([])],
        s.probe(f[5]).hex(),
        s.probe(f[1]).hex(),
        s.probe(LOCAL[0]).hex(),
        s.probe(IMPOSTOR).hex(),
    ]
    for q in THRESHOLDS:
        seen.append(s.prepare(q))
        for i, t in enumerate(f[6:30][::order]):
            if i % 4 == 3:
                head = s.pop_representative()
                seen.append(None if head is None else (head.key, head.local_probability.hex()))
            if i % 5 == 4:
                reply = s.probe_and_prune_batch([t, f[i], t, DOMINATING])
                seen.append(([x.hex() for x in reply.factors], reply.pruned, reply.queue_remaining))
            else:
                reply = s.probe_and_prune(t)
                seen.append((reply.factor.hex(), reply.pruned, reply.queue_remaining))
        seen.append([(h.key, h.local_probability.hex()) for h in iter(s.pop_representative, None)])
        seen.append(s.pruned_total)
    return seen


@pytest.mark.parametrize("preference", PREFERENCES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_forks_of_a_memoised_template_equal_a_fresh_site(kernel, preference):
    pref = PREFERENCES[preference]
    want = script(site(kernel, LOCAL, pref))
    template = site(kernel, LOCAL, pref)
    cold = template.fork()
    assert script(cold) == want
    memo = template._memo
    assert memo is not None and memo is cold._memo
    assert set(memo.queues) == set(THRESHOLDS)
    assert memo.factors and any(queue.rows for queue in memo.queues.values())
    filled = (len(memo.factors), {q: len(v.rows) for q, v in memo.queues.items()})
    # Warm: every answer comes from the memo and nothing new is stored.
    assert script(template.fork()) == want
    assert script(cold.fork()) == want
    assert (len(memo.factors), {q: len(v.rows) for q, v in memo.queues.items()}) == filled
    assert script(template.fork(), order=-1) == script(site(kernel, LOCAL, pref), order=-1)


@pytest.mark.parametrize("preference", PREFERENCES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_written_hosts_forks_equal_a_fresh_site_over_the_written_partition(kernel, preference):
    pref = PREFERENCES[preference]
    host = SharedSiteHost(0, LOCAL, SiteConfig(kernel=kernel))
    written = list(LOCAL)
    for write in ("insert", "delete", "insert-dominating"):
        script(host.view(pref))  # warm the template the write replaces
        if write == "insert":
            t = UncertainTuple(80_000, (2.0, 2.0, 3.0), 0.7)
            host.apply_insert(t)
            written.append(t)
        elif write == "delete":
            host.apply_delete(LOCAL[3].key)
            written = [t for t in written if t.key != LOCAL[3].key]
        else:
            host.apply_insert(DOMINATING)
            written.append(DOMINATING)
        want = script(site(kernel, written, pref))
        assert script(host.view(pref)) == want
        assert script(host.view(pref)) == want  # warm


def test_forks_in_threads_share_one_memo_and_stay_exact():
    """A ``fork_per_connection`` server forks in handler threads: racing
    fills of one entry must leave every session exact."""
    orders = (1, -1) * 4
    want = {order: script(site("prtree", LOCAL, None), order) for order in (1, -1)}
    template = site("prtree", LOCAL, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            runs = [pool.submit(lambda o: script(template.fork(), o), o) for o in orders]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[order] for order in orders]


# ----------------------------------------------------------------------
# lifetime and bound


def test_a_written_hosts_old_template_and_memo_are_collectable():
    host = SharedSiteHost(0, LOCAL)
    session = host.view()
    script(session)
    template = host.template()
    old_template, old_memo = weakref.ref(template), weakref.ref(template._memo)
    host.apply_insert(UncertainTuple(80_000, (2.0, 2.0, 3.0), 0.7))
    assert host.view()._memo is not session._memo
    del template, session
    gc.collect()
    assert old_template() is None and old_memo() is None


def test_factor_entries_stay_within_the_foreign_tuples_per_template():
    db = make_random_database(240, 3, seed=53)
    partitions = [db[i::4] for i in range(4)]
    specs = [
        QuerySpec(q, algorithm, preference=pref, limit=limit, batch_size=batch)
        for q in (0.3, 0.5)
        for algorithm in ("dsud", "edsud")
        for pref, limit, batch in ((None, None, 1), (Preference(subspace=(0, 1)), 3, 4))
    ]

    async def serve():
        service = SkylineService(partitions)
        service.start()
        sessions = [await service.submit(spec) for spec in specs]
        while not all(s.done for s in sessions):
            await asyncio.sleep(0)
        await service.close()
        return service, sessions

    service, sessions = asyncio.run(serve())
    for session, spec in zip(sessions, specs):
        solo = distributed_skyline(
            partitions, spec.threshold, algorithm=spec.algorithm, preference=spec.preference,
            limit=spec.limit, batch_size=spec.batch_size,
        )
        assert [(m.tuple.key, m.probability.hex()) for m in session.result.answer] == [
            (m.tuple.key, m.probability.hex()) for m in solo.answer
        ]
    memos = [t._memo for host in service.hosts for t in host._templates.values()]
    assert len(memos) == 2 * len(partitions)  # two preferences per host
    for host in service.hosts:
        for template in host._templates.values():
            assert template._memo.factors
            assert len(template._memo.factors) <= len(db) - len(host)
            assert all(t.key not in template.database for t in template._memo.factors)


def test_a_site_that_is_never_forked_holds_no_memo():
    solo = site("prtree", LOCAL, None)
    script(solo)
    assert solo._memo is None
    manager = ReplicaManager.provision([solo, LocalSite(1, FOREIGN)], 2)
    replicas = [replica for copies in manager.replicas.values() for _buddy, replica in copies]
    assert replicas and all(replica._memo is None for replica in replicas)
    server = SiteServer(solo)  # fork_per_connection=False: every connection shares the site
    try:
        assert server.session_site() is solo and solo._memo is None
    finally:
        server.server_close()
    stream = StreamSite(0, CountWindow(8))
    stream.register_group(0, 0.3)
    for t in LOCAL[:10]:
        stream.ingest(t)
    stream.close_epoch(0)
    engines = [group.engine for group in stream._groups.values()]
    assert engines and all(engine._memo is None for engine in engines)
    forking = SiteServer(site("prtree", LOCAL, None), fork_per_connection=True)
    try:
        fork = forking.session_site()
        assert fork._memo is not None and fork._memo is forking.site._memo
    finally:
        forking.server_close()
