"""Good/bad fixture pairs for the whole-program (SKY6xx) rule family.

Each fixture is a tiny multi-file project run through the engine's one
driver (:func:`~repro.analysis.engine.run_rules`), so these tests pin
the *call-graph* semantics —
resolution through ``self`` methods, attribute types, imports, the
generator boundary — not just the per-rule predicates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.callgraph import ProgramRule
from repro.analysis.engine import run_rules
from repro.analysis.framework import Finding, ModuleContext
from repro.analysis.rules import RULES
from repro.analysis.rules.asyncio_discipline import AsyncioDisciplineRule
from repro.analysis.rules.interprocedural import (
    InterproceduralBillingRule,
    LedgerSymmetryRule,
    SeedProvenanceRule,
    TransitiveBlockingRule,
)


def _check(files: Dict[str, str], rules: Sequence[ProgramRule]) -> List[Finding]:
    return run_rules([ModuleContext(path, source) for path, source in files.items()], rules)


# ----------------------------------------------------------------------
# SKY601 — async-transitive-blocking


SKY601_BAD_TRANSITIVE = {
    "repro/serve/fake.py": """\
import time


class Service:
    async def step(self):
        self._drain()

    def _drain(self):
        self._flush()

    def _flush(self):
        time.sleep(0.1)
"""
}

SKY601_GOOD_GENERATOR_BOUNDARY = {
    "repro/serve/fake.py": """\
import time


class Service:
    async def poll(self):
        self._advance()

    def _advance(self):
        return self.steps()

    def steps(self):
        time.sleep(0.1)
        yield 1
"""
}


def test_sky601_follows_blocking_through_sync_helpers():
    findings = _check(SKY601_BAD_TRANSITIVE, [TransitiveBlockingRule()])
    assert [f.rule for f in findings] == ["SKY601"]
    assert "Service._drain -> Service._flush" in findings[0].message
    assert "time.sleep" in findings[0].message
    # Anchored at the async call site, not the deep blocking line.
    assert findings[0].context == "Service.step"


def test_sky601_treats_calling_a_generator_as_a_boundary():
    # Calling a generator function executes none of its body, so the
    # sleep inside `steps` is not reachable from `poll`.
    assert _check(SKY601_GOOD_GENERATOR_BOUNDARY, [TransitiveBlockingRule()]) == []


def test_sky601_transitive_pool_join_flagged_and_nowait_accepted():
    bad = {
        "repro/serve/fake.py": """\
class Service:
    async def abort(self):
        self._release()

    def _release(self):
        self._pool.shutdown(wait=True)
"""
    }
    good = {
        "repro/serve/fake.py": """\
class Service:
    async def abort(self):
        self._release()

    def _release(self):
        self._pool.shutdown(wait=False)
"""
    }
    findings = _check(bad, [TransitiveBlockingRule()])
    assert [f.rule for f in findings] == ["SKY601"]
    assert "pool-join" in findings[0].message
    assert _check(good, [TransitiveBlockingRule()]) == []


_SYNC_ENDPOINT = """\
class SiteEndpoint:
    def prepare(self, threshold):
        return 0
"""


def test_sky601_flags_sync_site_endpoint_calls_in_async_defs():
    files = {
        "repro/net/transport.py": _SYNC_ENDPOINT,
        "repro/net/aio_fake.py": """\
from repro.net.transport import SiteEndpoint


class Adapter:
    def __init__(self, inner: SiteEndpoint) -> None:
        self.inner = inner

    async def prepare(self, threshold):
        return self.inner.prepare(threshold)
""",
    }
    findings = _check(files, [TransitiveBlockingRule()])
    assert [f.rule for f in findings] == ["SKY601"]
    assert "sync" in findings[0].message and "SiteEndpoint" in findings[0].message


def test_sky601_respects_reasoned_suppressions():
    files = {
        "repro/net/transport.py": _SYNC_ENDPOINT,
        "repro/net/aio_fake.py": """\
from repro.net.transport import SiteEndpoint


class Adapter:
    def __init__(self, inner: SiteEndpoint) -> None:
        self.inner = inner

    async def prepare(self, threshold):
        return self.inner.prepare(threshold)  # skylint: ignore[SKY601] in-process compute by design
""",
    }
    assert _check(files, [TransitiveBlockingRule()]) == []


# SKY601 owns everything SKY503's blocking half used to catch on its
# scope (direct blocking calls and pool joins in async defs); SKY503
# keeps only the fire-and-forget check.

SKY503_BAD_BLOCKING = """\
import socket
import time


class Service:
    async def step(self):
        time.sleep(0.1)
        conn = socket.create_connection(("site-0", 9000))
        return conn
"""

SKY503_BAD_POOL_JOIN = """\
class TablePool:
    async def aclose(self):
        self._executor.shutdown(wait=True)

    async def drain(self):
        self._pool.join()
"""


def test_sky601_reproduces_sky503_blocking_findings():
    for relpath in ("repro/serve/fake.py", "repro/net/aio.py"):
        findings = _check({relpath: SKY503_BAD_BLOCKING}, [TransitiveBlockingRule()])
        assert [(f.rule, f.line) for f in findings] == [("SKY601", 7), ("SKY601", 8)]
        assert "time.sleep" in findings[0].message
        assert "socket.create_connection" in findings[1].message


def test_sky601_reproduces_sky503_pool_join_findings():
    findings = _check(
        {"repro/serve/fake.py": SKY503_BAD_POOL_JOIN},
        [TransitiveBlockingRule()],
    )
    assert [(f.rule, f.line) for f in findings] == [("SKY601", 3), ("SKY601", 6)]
    assert "shutdown" in findings[0].message
    assert "join" in findings[1].message


def test_sky503_and_sky601_split_the_event_loop_checks():
    source = """\
import asyncio
import time


class Service:
    async def step(self):
        time.sleep(0.1)
        asyncio.create_task(self._scheduler())
"""
    files = {"repro/serve/fake.py": source}
    sky503 = run_rules(
        [ModuleContext("repro/serve/fake.py", source)], [AsyncioDisciplineRule()]
    )
    assert [(f.rule, f.line) for f in sky503] == [("SKY503", 8)]
    assert "fire-and-forget" in sky503[0].message
    sky601 = _check(files, [TransitiveBlockingRule()])
    assert [(f.rule, f.line) for f in sky601] == [("SKY601", 7)]


# ----------------------------------------------------------------------
# SKY602 — rpc-billing-paths


SKY602_GOOD_WRAPPER_TWO_UP = {
    "repro/distributed/fake.py": """\
class Region:
    def entry(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        self.middle(site)

    def middle(self, site):
        self.leaf(site)

    def leaf(self, site):
        return site.prepare(0.5)
"""
}

SKY602_BAD_UNBILLED = {
    "repro/distributed/fake.py": """\
class Region:
    def entry(self, site):
        self.leaf(site)

    def leaf(self, site):
        return site.prepare(0.5)
"""
}

SKY602_BAD_DOUBLE = {
    "repro/distributed/fake.py": """\
class Region:
    def entry(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        self.leaf(site)

    def leaf(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        return site.prepare(0.5)
"""
}


def test_sky602_accepts_billing_in_a_wrapper_two_calls_up():
    assert _check(SKY602_GOOD_WRAPPER_TWO_UP, [InterproceduralBillingRule()]) == []


def test_sky602_flags_rpc_billed_nowhere_on_the_path():
    findings = _check(SKY602_BAD_UNBILLED, [InterproceduralBillingRule()])
    assert [f.rule for f in findings] == ["SKY602"]
    assert "site.prepare" in findings[0].message
    assert "Region.entry" in findings[0].message  # names the unbilled root


def test_sky602_flags_double_billing_through_a_wrapper():
    findings = _check(SKY602_BAD_DOUBLE, [InterproceduralBillingRule()])
    assert [f.rule for f in findings] == ["SKY602"]
    assert "twice" in findings[0].message
    assert "Region.entry" in findings[0].message


def test_sky602_scope_excludes_the_site_module_and_core():
    for relpath in ("repro/distributed/site.py", "repro/core/fake.py"):
        files = {relpath: SKY602_BAD_UNBILLED["repro/distributed/fake.py"]}
        assert _check(files, [InterproceduralBillingRule()]) == []


def test_sky602_counts_only_networkstats_bill_as_a_message_bill():
    # A billing helper is not a bill: the one spelling is `stats.bill`,
    # and a same-named call on another book (`LivenessBook.record`)
    # never was one.
    source = """\
class Region:
    def pull(self, site, book):
        self._account(MessageKind.PREPARE)
        book.record(("site", 0), True)
        return site.prepare(0.5)

    def _account(self, kind):
        self.stats.bill(kind, "server", "site-0")
"""
    findings = _check({"repro/distributed/fake.py": source}, [InterproceduralBillingRule()])
    assert [f.rule for f in findings] == ["SKY602"]


# ----------------------------------------------------------------------
# SKY603 — message-kind-ledger


_MESSAGE_MODULE = """\
import enum


class MessageKind(enum.Enum):
    PREPARE = "prepare"
    RESULT = "result"
"""


def test_sky603_accepts_kinds_billed_from_their_rpc_sites():
    files = {
        "repro/net/message.py": _MESSAGE_MODULE,
        "repro/distributed/fake.py": """\
from repro.net.message import MessageKind


class Region:
    def pull(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        self.stats.bill(MessageKind.RESULT, "server", "client")
        return site.prepare(0.5)
""",
    }
    assert _check(files, [LedgerSymmetryRule()]) == []


def test_sky603_flags_a_kind_nothing_ever_bills():
    files = {
        "repro/net/message.py": _MESSAGE_MODULE,
        "repro/distributed/fake.py": """\
from repro.net.message import MessageKind


class Region:
    def pull(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        return site.prepare(0.5)
""",
    }
    findings = _check(files, [LedgerSymmetryRule()])
    assert [f.rule for f in findings] == ["SKY603"]
    assert "RESULT" in findings[0].message
    assert findings[0].path == "repro/net/message.py"


def test_sky603_flags_a_kind_billed_away_from_its_rpc():
    files = {
        "repro/net/message.py": _MESSAGE_MODULE,
        "repro/distributed/fake.py": """\
from repro.net.message import MessageKind


class Region:
    def pull(self, site):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
        self.stats.bill(MessageKind.RESULT, "server", "client")
        return site.pop_representative()
""",
    }
    findings = _check(files, [LedgerSymmetryRule()])
    assert [f.rule for f in findings] == ["SKY603"]
    assert "PREPARE" in findings[0].message


def test_sky603_attributes_bills_in_helpers_to_their_callers():
    # A bill in a pure helper prices the RPC in its caller — the
    # ledger entry still matches.
    files = {
        "repro/net/message.py": _MESSAGE_MODULE,
        "repro/distributed/fake.py": """\
from repro.net.message import MessageKind


class Region:
    def pull(self, site):
        self._prepare_bill()
        self.stats.bill(MessageKind.RESULT, "server", "client")
        return site.prepare(0.5)

    def _prepare_bill(self):
        self.stats.bill(MessageKind.PREPARE, "server", "site-0")
""",
    }
    assert _check(files, [LedgerSymmetryRule()]) == []


# ----------------------------------------------------------------------
# The continuous-query (stream/) push path: SKY602's scope and SKY603's
# ledger both learn the SUBSCRIBE/DELTA/NOTIFY/EXPIRE kinds.


SKY602_BAD_STREAM_UNBILLED = {
    "repro/stream/fake.py": """\
class Hub:
    def epoch(self, site):
        return site.close_epoch("g0")
"""
}


def test_sky602_covers_the_stream_push_path():
    findings = _check(SKY602_BAD_STREAM_UNBILLED, [InterproceduralBillingRule()])
    assert [f.rule for f in findings] == ["SKY602"]
    assert "site.close_epoch" in findings[0].message


def test_sky602_stream_site_module_is_the_endpoint_not_a_sender():
    files = {
        "repro/stream/site.py": SKY602_BAD_STREAM_UNBILLED["repro/stream/fake.py"]
    }
    assert _check(files, [InterproceduralBillingRule()]) == []


def test_sky602_accepts_a_locally_billed_stream_epoch():
    files = {
        "repro/stream/fake.py": """\
class Hub:
    def epoch(self, site):
        self.stats.bill(MessageKind.DELTA, "site-0", "server")
        return site.close_epoch("g0")
"""
    }
    assert _check(files, [InterproceduralBillingRule()]) == []


def test_sky101_applies_to_stream_senders_but_not_the_stream_site():
    # The retired per-file SKY101 covered stream senders and exempted
    # the stream site; SKY602 keeps both halves of that scope.
    source = SKY602_BAD_STREAM_UNBILLED["repro/stream/fake.py"]
    flagged = _check({"repro/stream/fake.py": source}, [InterproceduralBillingRule()])
    assert [f.rule for f in flagged] == ["SKY602"]
    assert _check({"repro/stream/site.py": source}, [InterproceduralBillingRule()]) == []


_STREAM_MESSAGE_MODULE = """\
import enum


class MessageKind(enum.Enum):
    SUBSCRIBE = "subscribe"
    DELTA = "delta"
    NOTIFY = "notify"
    EXPIRE = "expire"
"""


def test_sky603_accepts_the_stream_kinds_billed_from_their_rpcs():
    files = {
        "repro/net/message.py": _STREAM_MESSAGE_MODULE,
        "repro/stream/fake.py": """\
from repro.net.message import MessageKind


class Hub:
    def register(self, site, query):
        self.stats.bill(MessageKind.SUBSCRIBE, "client", "server")
        return site.register_group("g0", query)

    def epoch(self, site):
        self.stats.bill(MessageKind.DELTA, "site-0", "server")
        self.stats.bill(MessageKind.EXPIRE, "site-0", "server")
        self.stats.bill(MessageKind.NOTIFY, "server", "client")
        return site.close_epoch("g0")
""",
    }
    assert _check(files, [LedgerSymmetryRule()]) == []


def test_sky603_flags_stream_kinds_billed_away_from_their_rpcs():
    # DELTA and EXPIRE price the close_epoch digest; billing them from
    # the registration path (register_group) breaks the ledger pairing.
    files = {
        "repro/net/message.py": _STREAM_MESSAGE_MODULE,
        "repro/stream/fake.py": """\
from repro.net.message import MessageKind


class Hub:
    def register(self, site, query):
        self.stats.bill(MessageKind.SUBSCRIBE, "client", "server")
        self.stats.bill(MessageKind.DELTA, "site-0", "server")
        self.stats.bill(MessageKind.EXPIRE, "site-0", "server")
        self.stats.bill(MessageKind.NOTIFY, "server", "client")
        return site.register_group("g0", query)
""",
    }
    findings = _check(files, [LedgerSymmetryRule()])
    assert [f.rule for f in findings] == ["SKY603", "SKY603"]
    assert "DELTA" in findings[0].message
    assert "EXPIRE" in findings[1].message


def test_sky603_flags_a_stream_kind_nothing_ever_bills():
    files = {
        "repro/net/message.py": _STREAM_MESSAGE_MODULE,
        "repro/stream/fake.py": """\
from repro.net.message import MessageKind


class Hub:
    def register(self, site, query):
        self.stats.bill(MessageKind.SUBSCRIBE, "client", "server")
        return site.register_group("g0", query)

    def epoch(self, site):
        self.stats.bill(MessageKind.DELTA, "site-0", "server")
        self.stats.bill(MessageKind.NOTIFY, "server", "client")
        return site.close_epoch("g0")
""",
    }
    findings = _check(files, [LedgerSymmetryRule()])
    assert [f.rule for f in findings] == ["SKY603"]
    assert "EXPIRE" in findings[0].message
    assert "no billed send site" in findings[0].message


# ----------------------------------------------------------------------
# SKY604 — seed-provenance


_PROTOCOL_CONSUMER = """\
def run_query(rng):
    return rng.random()
"""


def test_sky604_flags_unseeded_rng_flowing_into_protocol_code():
    files = {
        "repro/distributed/fake.py": _PROTOCOL_CONSUMER,
        "bench/driver.py": """\
import random

from repro.distributed.fake import run_query


def main():
    rng = random.Random()
    return run_query(rng)
""",
    }
    findings = _check(files, [SeedProvenanceRule()])
    assert [f.rule for f in findings] == ["SKY604"]
    assert "unseeded" in findings[0].message
    assert findings[0].path == "bench/driver.py"  # anchored at the ctor


def test_sky604_flags_wall_clock_seeds():
    files = {
        "repro/distributed/fake.py": _PROTOCOL_CONSUMER,
        "bench/driver.py": """\
import random
import time

from repro.distributed.fake import run_query


def main():
    rng = random.Random(time.time())
    return run_query(rng)
""",
    }
    findings = _check(files, [SeedProvenanceRule()])
    assert [f.rule for f in findings] == ["SKY604"]
    assert "wall-clock-seeded" in findings[0].message


def test_sky604_accepts_seeded_generators_and_local_unseeded_ones():
    seeded = {
        "repro/distributed/fake.py": _PROTOCOL_CONSUMER,
        "bench/driver.py": """\
import random

from repro.distributed.fake import run_query


def main():
    rng = random.Random(1234)
    return run_query(rng)
""",
    }
    local_only = {
        "bench/driver.py": """\
import random


def jitter(rng):
    return rng.random()


def main():
    rng = random.Random()
    return jitter(rng)
""",
    }
    assert _check(seeded, [SeedProvenanceRule()]) == []
    assert _check(local_only, [SeedProvenanceRule()]) == []


def test_sky604_follows_returns_into_protocol_callers():
    files = {
        "bench/factory.py": """\
import random


def make_rng():
    return random.Random()
""",
        "repro/serve/fake.py": """\
from bench.factory import make_rng


class Service:
    def start(self):
        self.rng = make_rng()
""",
    }
    findings = _check(files, [SeedProvenanceRule()])
    assert [f.rule for f in findings] == ["SKY604"]
    assert findings[0].path == "bench/factory.py"


# ----------------------------------------------------------------------
# registry sanity


def test_program_rules_cover_sky601_through_sky604():
    program_rules = [rule for rule in RULES if isinstance(rule, ProgramRule)]
    assert [rule.id for rule in program_rules] == [
        "SKY601",
        "SKY602",
        "SKY603",
        "SKY604",
    ]
    for rule in program_rules:
        assert rule.description.strip()
