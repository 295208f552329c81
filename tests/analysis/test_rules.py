"""Good/bad fixture pairs for every skylint rule.

Each bad fixture proves the rule catches the defect class it was
written for; each good fixture proves the idiomatic repo pattern stays
clean (no false positives on the code style the fix commits introduced).
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.analysis.engine import run_rules
from repro.analysis.framework import Finding, ModuleContext, Rule
from repro.analysis.rules.asyncio_discipline import AsyncioDisciplineRule
from repro.analysis.rules.determinism import UnseededRandomRule, WallClockRule
from repro.analysis.rules.interprocedural import (
    InterproceduralBillingRule,
    TransitiveBlockingRule,
)
from repro.analysis.rules.probability import (
    FloatEqualityRule,
    RawNonOccurrenceProductRule,
)
from repro.analysis.rules.protocol import EmissionDisciplineRule
from repro.analysis.rules.rpc import RpcDisciplineRule


def _run(source: str, rule: Rule, relpath: str = "repro/core/fake.py") -> List[Finding]:
    return run_rules([ModuleContext(relpath, source)], [rule])


# ----------------------------------------------------------------------
# SKY101 / SKY103 — the retired per-file billing rules' fixtures
#
# An RPC with no bill in the same function, under distributed/ (SKY101)
# or replica/ (SKY103), is now SKY602's (interprocedural-billing) to
# report; these pin that it still does, on the same fixtures.


def _billing(source: str, relpath: str) -> List[Finding]:
    return _run(source, InterproceduralBillingRule(), relpath)


SKY101_BAD = """\
class Region:
    def pull(self, site, preference):
        return site.prepare(preference)
"""

SKY101_GOOD = """\
class Region:
    def pull(self, site, preference):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        return site.prepare(preference)
"""


def test_sky101_flags_unbilled_site_rpc():
    findings = _billing(SKY101_BAD, "repro/distributed/fake.py")
    assert [f.rule for f in findings] == ["SKY602"]
    assert "site.prepare" in findings[0].message


def test_sky101_accepts_rpc_with_accounting_in_same_function():
    assert _billing(SKY101_GOOD, "repro/distributed/fake.py") == []


def test_sky101_nested_thunk_bills_against_outermost_function():
    source = """\
class Region:
    def pull(self, site):
        thunk = lambda: site.pop_representative()
        return thunk()
"""
    findings = _billing(source, "repro/distributed/fake.py")
    assert [f.rule for f in findings] == ["SKY602"]
    assert "site.pop_representative" in findings[0].message


def test_sky101_exempts_the_site_module_itself():
    assert _billing(SKY101_BAD, "repro/distributed/site.py") == []


def test_sky101_ignores_non_distributed_modules():
    assert _billing(SKY101_BAD, "repro/core/fake.py") == []


SKY103_BAD = """\
class Manager:
    def forward(self, replica, t):
        replica.insert_tuple(t)
"""

SKY103_GOOD = """\
class Manager:
    def forward(self, replica, t):
        self.stats.bill(MessageKind.REPLICA_SYNC, "site-0", "replica-0", tuples=1)
        replica.insert_tuple(t)
"""


def test_sky103_flags_unbilled_replica_rpc():
    findings = _billing(SKY103_BAD, "repro/replica/fake.py")
    assert [f.rule for f in findings] == ["SKY602"]
    assert "replica.insert_tuple" in findings[0].message


def test_sky103_accepts_billed_replica_rpc():
    assert _billing(SKY103_GOOD, "repro/replica/fake.py") == []


def test_sky103_covers_the_maintenance_surface_sky101_skips():
    source = """\
class Manager:
    def digest(self, replica):
        return replica.partition_digest()
"""
    findings = _billing(source, "repro/replica/fake.py")
    assert [f.rule for f in findings] == ["SKY602"]
    assert "replica.partition_digest" in findings[0].message


def test_sky103_nested_thunk_bills_against_outermost_function():
    source = """\
class Manager:
    def sweep(self, replicas):
        return [r.partition_digest() for r in replicas]
"""
    findings = _billing(source, "repro/replica/fake.py")
    assert [f.rule for f in findings] == ["SKY602"]
    assert "r.partition_digest" in findings[0].message


# ----------------------------------------------------------------------
# SKY102 — emission-discipline


SKY102_BAD = """\
class Fast(Coordinator):
    def _execute(self):
        for head in self._heap:
            self.report(head.tuple, head.probability)
            buffer.offer(head.tuple, head.probability)
"""

SKY102_GOOD = """\
class Fast(Coordinator):
    def _execute(self):
        for head in self._heap:
            self.emit(head.tuple, head.probability)
            if self.drain_topk(remaining_cap):
                return
        self.finish_topk()

    def emit(self, t, global_probability):
        self._topk.offer(t, global_probability)
"""


def test_sky102_flags_emission_bypassing_the_funnel():
    findings = _run(SKY102_BAD, EmissionDisciplineRule(), "repro/distributed/fake.py")
    assert [f.rule for f in findings] == ["SKY102", "SKY102"]
    assert "self.report(...)" in findings[0].message
    assert "offer" in findings[1].message


def test_sky102_accepts_the_emit_funnel():
    assert _run(SKY102_GOOD, EmissionDisciplineRule(), "repro/distributed/fake.py") == []


def test_sky102_transitive_coordinator_subclasses_are_covered():
    source = """\
class Base(Coordinator):
    pass

class Leaf(Base):
    def _execute(self):
        self.report(t, p)
"""
    findings = _run(source, EmissionDisciplineRule(), "repro/distributed/fake.py")
    assert [f.rule for f in findings] == ["SKY102"]


def test_sky102_exempts_bookkeeping_and_callbacks():
    # `self.coverage.report(...)` is accounting, not emission, and
    # passing `self.report` as the drain callback is the sanctioned
    # hand-off — neither may trip the rule.
    source = """\
class Fast(Coordinator):
    def run(self):
        self.coverage.report(result_keys=keys)
        self._topk.drain(cap, self.report)
"""
    assert _run(source, EmissionDisciplineRule(), "repro/distributed/fake.py") == []


def test_sky102_ignores_non_coordinator_classes():
    source = """\
class Helper:
    def push(self):
        self.report(t, p)
        queue.offer(t, p)
"""
    assert _run(source, EmissionDisciplineRule(), "repro/distributed/fake.py") == []


# ----------------------------------------------------------------------
# SKY201 — determinism-rng


def test_sky201_flags_process_global_random():
    source = """\
import random

def jitter():
    return random.random()
"""
    findings = _run(source, UnseededRandomRule())
    assert [f.rule for f in findings] == ["SKY201"]


def test_sky201_flags_unseeded_constructors():
    source = """\
import random
import numpy as np

def build():
    a = random.Random()
    b = np.random.default_rng()
    return a, b
"""
    findings = _run(source, UnseededRandomRule())
    assert [f.rule for f in findings] == ["SKY201", "SKY201"]


def test_sky201_flags_numpy_legacy_global_state():
    source = """\
import numpy as np

def draw():
    return np.random.rand(3)
"""
    findings = _run(source, UnseededRandomRule())
    assert [f.rule for f in findings] == ["SKY201"]


def test_sky201_flags_maybe_none_seed_passthrough():
    source = """\
import numpy as np

def make(seed=None):
    return np.random.default_rng(seed)
"""
    findings = _run(source, UnseededRandomRule())
    assert [f.rule for f in findings] == ["SKY201"]
    assert "seed" in findings[0].message


def test_sky201_flags_conditional_none_seed():
    source = """\
import random

def make(flag):
    return random.Random(None if flag else 3)
"""
    findings = _run(source, UnseededRandomRule())
    assert [f.rule for f in findings] == ["SKY201"]


def test_sky201_accepts_seeded_and_normalised_generators():
    source = """\
import random
import numpy as np

def make(seed=None):
    rng = np.random.default_rng(0 if seed is None else seed)
    seed = 0 if seed is None else seed
    sub = random.Random(seed + 1)
    return rng, sub
"""
    assert _run(source, UnseededRandomRule()) == []


def test_sky201_exempts_bench_and_cli_paths():
    source = """\
import random

def jitter():
    return random.random()
"""
    assert _run(source, UnseededRandomRule(), "repro/bench/fake.py") == []
    assert _run(source, UnseededRandomRule(), "repro/cli.py") == []


# ----------------------------------------------------------------------
# SKY202 — determinism-clock


def test_sky202_flags_wall_clock_reads():
    source = """\
import time

def stamp():
    return time.time()
"""
    findings = _run(source, WallClockRule())
    assert [f.rule for f in findings] == ["SKY202"]


def test_sky202_accepts_monotonic_measurement_clocks():
    source = """\
import time

def measure():
    return time.perf_counter() - time.process_time()
"""
    assert _run(source, WallClockRule()) == []


def test_sky202_exempts_socket_transport():
    source = """\
import time

def stamp():
    return time.time()
"""
    assert _run(source, WallClockRule(), "repro/net/sockets.py") == []


# ----------------------------------------------------------------------
# SKY301 — probability-float-equality


def test_sky301_flags_probability_equality_with_float_literal():
    source = """\
def check(prob):
    return prob == 0.5
"""
    findings = _run(source, FloatEqualityRule())
    assert [f.rule for f in findings] == ["SKY301"]


def test_sky301_flags_probability_to_probability_inequality():
    source = """\
def same(p_sky, other_prob):
    return p_sky != other_prob
"""
    findings = _run(source, FloatEqualityRule())
    assert [f.rule for f in findings] == ["SKY301"]


def test_sky301_accepts_integer_sentinels_and_order_comparisons():
    source = """\
def check(prob, count, threshold):
    if count == 0:
        return False
    return prob >= threshold
"""
    assert _run(source, FloatEqualityRule()) == []


# ----------------------------------------------------------------------
# SKY302 — probability-raw-product


def test_sky302_flags_loop_accumulation_of_one_minus_p():
    source = """\
def bound(tuples):
    acc = 1.0
    for t in tuples:
        acc *= 1.0 - t.probability
    return acc
"""
    findings = _run(source, RawNonOccurrenceProductRule())
    assert [f.rule for f in findings] == ["SKY302"]


def test_sky302_flags_prod_calls_over_one_minus_p():
    source = """\
import numpy as np

def bound(probs):
    return np.prod([1.0 - prob for prob in probs])
"""
    findings = _run(source, RawNonOccurrenceProductRule())
    assert [f.rule for f in findings] == ["SKY302"]


def test_sky302_accepts_helper_calls_and_single_factors():
    source = """\
from repro.core.probability import non_occurrence_product

def bound(prob, other_prob, probs):
    single = prob * (1.0 - other_prob)
    return single * non_occurrence_product(probs)
"""
    assert _run(source, RawNonOccurrenceProductRule()) == []


def test_sky302_exempts_the_blessed_helper_modules():
    source = """\
def bound(tuples):
    acc = 1.0
    for t in tuples:
        acc *= 1.0 - t.probability
    return acc
"""
    assert _run(source, RawNonOccurrenceProductRule(), "repro/core/probability.py") == []
    assert _run(source, RawNonOccurrenceProductRule(), "repro/index/fake.py") == []


# ----------------------------------------------------------------------
# SKY401 — rpc-discipline


def test_sky401_flags_direct_rpc_from_a_coordinator_subclass():
    source = """\
class FastCoordinator(Coordinator):
    def poll(self, site, t):
        return site.probe(t)
"""
    findings = _run(source, RpcDisciplineRule(), "repro/distributed/fake.py")
    assert [f.rule for f in findings] == ["SKY401"]
    assert 'yield _Rpc(site, "probe", args)' in findings[0].message


def test_sky401_accepts_rpcs_inside_the_funnel():
    source = """\
class FastCoordinator(Coordinator):
    def _poll_script(self, site, t):
        ok, reply = yield _Rpc(site, "probe", (t,))
        return reply

    def poll_now(self, site, t, policy):
        return call_with_retry(lambda: site.probe(t), policy)

    def liveness(self, site):
        try:
            return site.queue_size()
        except RETRYABLE_FAULTS:
            return None
"""
    assert _run(source, RpcDisciplineRule(), "repro/distributed/fake.py") == []


def test_sky401_ignores_non_coordinator_classes():
    source = """\
class RegionMaintainer:
    def poll(self, site, t):
        return site.probe(t)
"""
    assert _run(source, RpcDisciplineRule(), "repro/distributed/fake.py") == []


def test_sky401_transitive_inheritance_is_resolved_across_modules():
    base = ModuleContext(
        "repro/distributed/base.py",
        "class EagerCoordinator(Coordinator):\n    pass\n",
    )
    leaf = ModuleContext(
        "repro/distributed/leaf.py",
        """\
class Leaf(EagerCoordinator):
    def poll(self, site, t):
        return site.probe(t)
""",
    )
    findings = run_rules([base, leaf], [RpcDisciplineRule()])
    assert [f.rule for f in findings] == ["SKY401"]
    assert findings[0].path == "repro/distributed/leaf.py"


def test_sky401_reaches_ordering_policies_through_the_progressive_loop():
    # The real intermediate class, so the rule keeps its reach if the
    # policy/loop seam moves: a policy hook that probes a site directly.
    import repro.distributed.progressive as progressive

    loop = ModuleContext(
        "repro/distributed/progressive.py", Path(progressive.__file__).read_text()
    )
    policy = ModuleContext(
        "repro/distributed/greedy.py",
        """class Greedy(ProgressiveCoordinator):
    def _select(self):
        head = self.held.pop()
        for site in self.sites:
            site.probe_and_prune(head.tuple)
        return [head]
""",
    )
    findings = run_rules([loop, policy], [RpcDisciplineRule()])
    assert [(f.rule, f.path) for f in findings] == [
        ("SKY401", "repro/distributed/greedy.py")
    ]
    assert 'yield _Rpc(site, "probe_and_prune", args)' in findings[0].message


# ----------------------------------------------------------------------
# SKY503 — asyncio-discipline
#
# SKY503 owns fire-and-forget tasks; blocking calls and pool joins in
# an `async def` are SKY601's.  `_loop_findings` runs both, so each
# fixture below pins which of the two reports it, and that it is
# reported once.


def _loop_findings(source: str, relpath: str = "repro/serve/fake.py") -> List[Finding]:
    return run_rules(
        [ModuleContext(relpath, source)], [AsyncioDisciplineRule(), TransitiveBlockingRule()]
    )


SKY503_BAD_BLOCKING = """\
import socket
import time


class Service:
    async def step(self):
        time.sleep(0.1)
        conn = socket.create_connection(("site-0", 9000))
        return conn
"""

SKY503_GOOD_ASYNC = """\
import asyncio


class Service:
    async def step(self):
        await asyncio.sleep(0)
        reader, writer = await asyncio.open_connection("site-0", 9000)
        return reader, writer
"""

SKY503_BAD_FORGOTTEN_TASK = """\
import asyncio


class Service:
    async def start(self):
        asyncio.create_task(self._scheduler())
"""

SKY503_GOOD_KEPT_TASK = """\
import asyncio


class Service:
    def start(self, loop):
        self._scheduler_task = loop.create_task(self._scheduler())

    async def run_clients(self, n):
        workers = [asyncio.ensure_future(self._client()) for _ in range(n)]
        await asyncio.gather(*workers)
"""


def test_sky503_flags_blocking_calls_in_async_def():
    findings = _loop_findings(SKY503_BAD_BLOCKING)
    assert [(f.rule, f.line) for f in findings] == [("SKY601", 7), ("SKY601", 8)]
    assert "time.sleep" in findings[0].message
    assert "socket.create_connection" in findings[1].message


def test_sky503_accepts_the_asyncio_equivalents():
    assert _loop_findings(SKY503_GOOD_ASYNC) == []


def test_sky503_allows_blocking_calls_in_sync_functions():
    source = """\
import time


class Service:
    def warmup(self):
        time.sleep(0.1)
"""
    assert _loop_findings(source) == []


def test_sky503_flags_fire_and_forget_create_task():
    findings = _loop_findings(SKY503_BAD_FORGOTTEN_TASK)
    assert [f.rule for f in findings] == ["SKY503"]
    assert "fire-and-forget" in findings[0].message


def test_sky503_accepts_stored_and_gathered_tasks():
    assert _loop_findings(SKY503_GOOD_KEPT_TASK) == []


def test_sky503_scoped_to_the_async_modules():
    assert (
        _run(SKY503_BAD_FORGOTTEN_TASK, AsyncioDisciplineRule(), "repro/net/sockets.py")
        == []
    )
    for relpath in ("repro/net/aio.py", "repro/serve/session.py"):
        findings = _run(SKY503_BAD_FORGOTTEN_TASK, AsyncioDisciplineRule(), relpath)
        assert [f.rule for f in findings] == ["SKY503"]


SKY503_BAD_POOL_JOIN = """\
class TablePool:
    async def aclose(self):
        self._executor.shutdown(wait=True)

    async def drain(self):
        self._pool.join()
"""


def test_sky503_flags_blocking_pool_joins_in_async_def():
    findings = _loop_findings(SKY503_BAD_POOL_JOIN)
    assert [(f.rule, f.line) for f in findings] == [("SKY601", 3), ("SKY601", 6)]
    assert "shutdown" in findings[0].message
    assert "join" in findings[1].message


SKY503_GOOD_SYNC_CLOSE = """\
import asyncio


class TablePool:
    def close(self):
        self._executor.shutdown(wait=True)

    async def build_async(self, store):
        future = self._executor.submit(build_payload, store.values)
        return await asyncio.wrap_future(future)
"""


def test_sky503_accepts_sync_teardown_and_wrapped_futures():
    assert _loop_findings(SKY503_GOOD_SYNC_CLOSE) == []


def test_sky503_ignores_joins_on_non_executor_receivers():
    source = """\
class Service:
    async def render(self, parts):
        return ", ".join(parts)
"""
    assert _loop_findings(source) == []

