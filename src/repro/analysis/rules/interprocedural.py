"""SKY601–SKY604 — the whole-program (interprocedural) rule family.

These rules run in phase 2 over the linked
:class:`~repro.analysis.callgraph.Program` rather than one file at a
time, so they see properties that are *global* to the protocol: a
blocking call three frames below an ``async def``, an RPC billed by a
wrapper two calls up, a MessageKind member nothing ever bills.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..callgraph import Program, ProgramFunction, ProgramRule
from ..framework import Finding, Severity
from ..summaries import MESSAGE_MARKERS, BlockFact, ModuleSummary, RngFact, Site

__all__ = [
    "TransitiveBlockingRule",
    "InterproceduralBillingRule",
    "LedgerSymmetryRule",
    "SeedProvenanceRule",
]

#: One step of a blocking chain: the function entered and (for the last
#: step) the blocking fact inside it.
_Chain = List[Tuple[ProgramFunction, Optional[BlockFact]]]


class TransitiveBlockingRule(ProgramRule):
    """Invariant: no call chain from an ``async def`` reaches a
    blocking call — ``time.sleep``, raw socket ops, ``select``, a pool
    join/shutdown, or a *sync* ``SiteEndpoint`` RPC — without crossing
    an ``await``-shaped boundary (an async callee or a generator).

    Paper hook: the serving layer multiplexes every concurrent
    progressive query over one event loop; a single blocked frame
    stalls every in-flight session, so the benchmark's latency
    percentiles (``perf/run.py``) would measure the bug, not the §6
    progressiveness of the protocol.
    """

    id = "SKY601"
    name = "async-transitive-blocking"
    severity = Severity.ERROR
    description = (
        "Blocking call reachable from an `async def` through the project "
        "call graph: sleeps, raw sockets, pool joins, and sync "
        "SiteEndpoint RPCs stall the event loop for every in-flight "
        "session, no matter how many sync helpers deep they hide."
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        memo: Dict[str, Optional[_Chain]] = {}

        def first_block(pf: ProgramFunction, stack: Set[str]) -> Optional[_Chain]:
            if pf.key in memo:
                return memo[pf.key]
            if pf.key in stack:
                return None
            own = list(pf.summary.blocking) + list(pf.linked_blocking)
            if own:
                memo[pf.key] = [(pf, own[0])]
                return memo[pf.key]
            stack.add(pf.key)
            result: Optional[_Chain] = None
            for callee, _raw, _site in pf.callees:
                if callee.is_async or callee.is_generator:
                    continue
                sub = first_block(callee, stack)
                if sub is not None:
                    result = [(pf, None)] + sub
                    break
            stack.discard(pf.key)
            memo[pf.key] = result
            return result

        for pf in program.functions.values():
            if not pf.is_async:
                continue
            for fact in list(pf.summary.blocking) + list(pf.linked_blocking):
                yield self.finding_at(
                    pf.module, fact.site, self._direct_message(fact)
                )
            for callee, raw, site in pf.callees:
                if callee.is_async or callee.is_generator:
                    continue
                chain = first_block(callee, set())
                if chain is None:
                    continue
                path = " -> ".join(step.summary.qualname for step, _ in chain)
                fact = chain[-1][1]
                assert fact is not None
                yield self.finding_at(
                    pf.module,
                    site,
                    f"`{raw}(...)` called from async "
                    f"`{pf.summary.qualname}` reaches blocking "
                    f"`{fact.name}` ({fact.kind}) via {path} "
                    f"[{chain[-1][0].module.relpath}:{fact.site.lineno}]; "
                    "the event loop stalls for every in-flight session — "
                    "make the chain awaitable or move the blocking step "
                    "off the loop",
                )

    @staticmethod
    def _direct_message(fact: BlockFact) -> str:
        if fact.kind == "pool-join":
            return (
                f"`{fact.name}(...)` blocks the loop until every queued "
                "worker job drains; tear pools down from a sync `close()` "
                "(or `shutdown(wait=False)`) — async code should await "
                "`asyncio.wrap_future` handles"
            )
        if fact.kind == "sync-rpc":
            return (
                f"`{fact.name}(...)` is a *sync* SiteEndpoint RPC on the "
                "event loop: network/compute with no await point — use "
                "an awaitable endpoint (`AsyncRemoteSiteProxy`) or hand the call to a thread"
            )
        return (
            f"`{fact.name}(...)` blocks the event loop; every other "
            "in-flight session stalls with it — use the asyncio "
            "equivalent (`await asyncio.sleep`, `asyncio.open_connection`, …)"
        )


class InterproceduralBillingRule(ProgramRule):
    """Invariant: every call path from an entry point to a
    ``SiteEndpoint`` RPC crosses **exactly one** ``NetworkStats``
    billing site — either the RPC-bearing function bills locally, or
    exactly one pure wrapper (a biller with no RPCs of its own) above
    it does.

    Paper hook: Eq. 10 prices a DSUD run in transmitted tuples and
    Corollary 1 bounds degraded runs; an unbilled path under-counts the
    central metric and a double-billed path over-counts it, and both
    falsify every bandwidth figure downstream.
    """

    id = "SKY602"
    name = "rpc-billing-paths"
    severity = Severity.ERROR
    description = (
        "Interprocedural RPC billing: every path from an entry point to "
        "a site RPC must cross exactly one NetworkStats billing site. "
        "Catches RPCs billed nowhere on some path (helpers) and RPCs "
        "billed twice (local bill plus a billing wrapper above)."
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        tops = [
            pf for pf in program.functions.values() if pf.summary.parent is None
        ]
        edges: Dict[str, Set[str]] = {pf.key: set() for pf in tops}
        incoming: Dict[str, int] = {pf.key: 0 for pf in tops}
        by_key = {pf.key: pf for pf in tops}
        for pf in program.functions.values():
            top = program.toplevel(pf)
            for callee, _raw, _site in pf.callees:
                callee_top = program.toplevel(callee)
                if callee_top.key == top.key:
                    continue
                if callee_top.key not in edges[top.key]:
                    edges[top.key].add(callee_top.key)
                    incoming[callee_top.key] = incoming.get(callee_top.key, 0) + 1

        def rpc_methods(pf: ProgramFunction) -> Set[str]:
            return {
                r.method
                for r in program.lexical_rpcs(pf)
                if r.receiver != "self" and not r.receiver.startswith("self.")
            }

        def wrapper_biller(pf: ProgramFunction) -> bool:
            bills = program.lexical_bills(pf)
            return (
                any(b.marker in MESSAGE_MARKERS for b in bills)
                and not rpc_methods(pf)
            )

        # Worklist: for each top-level function, the set of
        # wrapper-biller counts over call chains from entry points,
        # capped at 2 ("two or more"), each with a witness chain.
        counts: Dict[str, Dict[int, Tuple[str, Tuple[str, ...]]]] = {}
        worklist: List[str] = []
        for pf in tops:
            if incoming.get(pf.key, 0) == 0:
                n = 1 if wrapper_biller(pf) else 0
                wrappers = (pf.summary.qualname,) if n else ()
                counts[pf.key] = {n: (pf.summary.qualname, wrappers)}
                worklist.append(pf.key)
        while worklist:
            key = worklist.pop()
            for callee_key in edges.get(key, ()):  # caller -> callee
                callee = by_key[callee_key]
                extra = 1 if wrapper_biller(callee) else 0
                bucket = counts.setdefault(callee_key, {})
                changed = False
                for n, (root, wrappers) in list(counts[key].items()):
                    n2 = min(n + extra, 2)
                    if n2 not in bucket:
                        wrappers2 = (
                            wrappers + (callee.summary.qualname,)
                            if extra
                            else wrappers
                        )
                        bucket[n2] = (root, wrappers2)
                        changed = True
                if changed:
                    worklist.append(callee_key)

        for pf in tops:
            if not self._in_scope(pf):
                continue
            rpcs = [
                r
                for r in program.lexical_rpcs(pf)
                if r.receiver != "self" and not r.receiver.startswith("self.")
            ]
            if not rpcs:
                continue
            local = 1 if program.lexical_bills(pf) else 0
            reached = counts.get(pf.key) or {0: (pf.summary.qualname, ())}
            totals = {n + local: wit for n, wit in reached.items()}
            if 0 in totals:
                root, _ = totals[0]
                for rpc in rpcs:
                    label = "bound as a thunk" if rpc.is_ref else "called"
                    yield self.finding_at(
                        pf.module,
                        rpc.site,
                        f"site RPC `{rpc.receiver}.{rpc.method}` ({label}) "
                        f"crosses no NetworkStats billing site on the call "
                        f"path from `{root}`; bill it locally or in exactly "
                        "one wrapper, or the Eq. 10 bandwidth metric "
                        "under-counts",
                    )
            doubles = {n: wit for n, wit in totals.items() if n >= 2}
            if doubles:
                n = max(doubles)
                root, wrappers = doubles[n]
                via = ", ".join(wrappers) or "<local>"
                yield self.finding_at(
                    pf.module,
                    rpcs[0].site,
                    f"site RPCs in `{pf.summary.qualname}` are billed "
                    f"{'at least twice' if n >= 2 else 'twice'} on the "
                    f"path from `{root}`: "
                    + (
                        f"locally and again by wrapper(s) {via}"
                        if local
                        else f"by multiple wrappers ({via})"
                    )
                    + " — the Eq. 10 bandwidth metric over-counts; bill "
                    "exactly once per message",
                )

    @staticmethod
    def _in_scope(pf: ProgramFunction) -> bool:
        relpath = pf.module.relpath
        if relpath.endswith(("distributed/site.py", "stream/site.py")):
            # These modules *are* the endpoints: their calls onto the
            # local engine are compute, not protocol messages.
            return False
        return any(part in relpath for part in ("distributed/", "replica/", "stream/"))


#: MessageKind member -> the RPC methods whose send it prices.  ``None``
#: means the kind is control/result traffic with no paired RPC (it only
#: needs *some* billed send site).
_KIND_RPCS: Dict[str, Optional[FrozenSet[str]]] = {
    "PREPARE": frozenset({"prepare"}),
    "PREPARE_REPLY": frozenset({"prepare"}),
    "NEXT_REQUEST": frozenset({"pop_representative"}),
    "REPRESENTATIVE": frozenset({"pop_representative"}),
    "EXHAUSTED": frozenset({"pop_representative"}),
    "FEEDBACK": frozenset(
        {"probe", "probe_batch", "probe_and_prune", "probe_and_prune_batch"}
    ),
    "PROBE_REPLY": frozenset(
        {
            "probe",
            "probe_batch",
            "probe_and_prune",
            "probe_and_prune_batch",
            "queue_size",
        }
    ),
    "RESULT": None,
    # UPDATE is the maintenance protocol's generic tuple-bearing
    # message: the inserted/deleted tuple itself, plus the probe and
    # candidate-recovery traffic §5.4 prices per tuple.
    "UPDATE": frozenset(
        {
            "insert_tuple",
            "delete_tuple",
            "fast_forward",
            "probe",
            "probe_batch",
            "dominated_local_candidates",
        }
    ),
    "DATA": frozenset({"ship_all", "ship_local_skyline"}),
    "CONTROL": None,
    "REPLICA_SYNC": frozenset(
        {"set_replica", "fast_forward", "insert_tuple", "delete_tuple",
         "sync_candidates"}
    ),
    "DIGEST": frozenset({"partition_digest"}),
    "FAILOVER_PROBE": None,
    # Continuous-query (stream/) push path: standing-query registration
    # rides SUBSCRIBE, per-epoch site digests ride DELTA, windowed
    # departures ride EXPIRE, and NOTIFY is pure coordinator->client
    # control traffic with no paired site RPC.
    "SUBSCRIBE": frozenset({"register_group", "drop_group"}),
    "DELTA": frozenset({"close_epoch", "sync_candidates"}),
    "NOTIFY": None,
    "EXPIRE": frozenset({"close_epoch"}),
}


class LedgerSymmetryRule(ProgramRule):
    """Invariant: every ``MessageKind`` member has at least one billed
    send site, and kinds that price a specific RPC are billed from a
    function that actually issues a matching RPC.

    Paper hook: the ledger is the experiment — a message kind that is
    defined but never billed is a protocol leg the Eq. 10 bandwidth
    figures silently omit (the §6.2 message-count comparisons assume
    every leg is priced).
    """

    id = "SKY603"
    name = "message-kind-ledger"
    severity = Severity.ERROR
    description = (
        "MessageKind ledger symmetry: every enum member needs a billed "
        "send site somewhere in the program, and kinds tied to an RPC "
        "(PREPARE, REPRESENTATIVE, FEEDBACK, …) must be billed from a "
        "function issuing that RPC — table-driven from the net/ message "
        "definitions."
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        members: List[Tuple[str, Site, ModuleSummary]] = []
        for module, cls in program.classes.get("MessageKind", []):
            if not any("Enum" in base for base in cls.bases):
                continue
            for name, site in cls.attrs.items():
                if name.isupper():
                    members.append((name, site, module))
        if not members:
            return

        billed: Dict[str, List[ProgramFunction]] = {}
        for pf in program.functions.values():
            for bill in pf.summary.bills:
                if bill.kind is not None:
                    billed.setdefault(bill.kind, []).append(program.toplevel(pf))

        def rpc_methods(pf: ProgramFunction) -> Set[str]:
            return {
                r.method
                for r in program.lexical_rpcs(pf)
                if r.receiver != "self" and not r.receiver.startswith("self.")
            }

        def effective_rpcs(pf: ProgramFunction) -> Set[str]:
            """RPC methods at the bill's real send site.

            A bill inside a pure billing helper prices a message its
            *caller* sends, so when the billing function issues no RPC
            itself, walk up the caller graph to the nearest RPC-issuing
            ancestors and use their methods.
            """
            own = rpc_methods(pf)
            if own:
                return own
            out: Set[str] = set()
            seen: Set[str] = {pf.key}
            frontier: List[ProgramFunction] = [pf]
            while frontier:
                current = frontier.pop()
                for caller in current.callers:
                    top = program.toplevel(caller)
                    if top.key in seen:
                        continue
                    seen.add(top.key)
                    methods = rpc_methods(top)
                    if methods:
                        out |= methods
                    else:
                        frontier.append(top)
            return out

        for name, site, module in members:
            senders = billed.get(name)
            if not senders:
                yield self.finding_at(
                    module,
                    site,
                    f"MessageKind.{name} has no billed send site anywhere "
                    "in the program: either a protocol leg is not being "
                    "priced into the Eq. 10 ledger, or the kind is dead "
                    "and should be removed",
                )
                continue
            allowed = _KIND_RPCS.get(name)
            if allowed and not any(effective_rpcs(pf) & allowed for pf in senders):
                expected = ", ".join(sorted(allowed))
                yield self.finding_at(
                    module,
                    site,
                    f"MessageKind.{name} is billed, but never from a "
                    f"function issuing its matching RPC ({expected}); the "
                    "ledger entry does not correspond to the message it "
                    "claims to price",
                )


class SeedProvenanceRule(ProgramRule):
    """Invariant: no unseeded (or wall-clock-seeded) RNG value flows —
    through assignments, arguments, or returns — into ``distributed/``,
    ``replica/``, ``serve/``, or ``stream/`` code.

    Paper hook: the reproduction's chaos, replica, and serving
    exactness contracts all assert bit-identical replay; a generator
    seeded from OS entropy that leaks into protocol code breaks replay
    in a way SKY201 (which only sees the constructing file) cannot
    attribute.
    """

    id = "SKY604"
    name = "seed-provenance"
    severity = Severity.ERROR
    description = (
        "Seed provenance: an unseeded or wall-clock-seeded "
        "Random/default_rng constructed anywhere (bench drivers, CLI, "
        "tests) must not flow into distributed/, replica/, serve/, or "
        "stream/ code — deterministic replay requires every protocol "
        "draw to derive from an explicit seed."
    )

    _PROTECTED = ("distributed/", "replica/", "serve/", "stream/")

    def check_program(self, program: Program) -> Iterator[Finding]:
        findings: List[Finding] = []
        visited: Set[Tuple[str, str]] = set()

        def protected(pf: ProgramFunction) -> bool:
            return any(part in pf.module.relpath for part in self._PROTECTED)

        def emit(origin: Tuple[ProgramFunction, RngFact], dest: str) -> None:
            pf, fact = origin
            label = (
                "wall-clock-seeded" if fact.seeding == "wall" else "unseeded"
            )
            findings.append(
                self.finding_at(
                    pf.module,
                    fact.site,
                    f"{label} `{fact.callee}(...)` flows into {dest}; "
                    "distributed/replica/serve code must only ever see "
                    "explicitly seeded generators (deterministic replay)",
                )
            )

        def follow(
            pf: ProgramFunction,
            flows: List[str],
            origin: Tuple[ProgramFunction, RngFact],
        ) -> None:
            for flow in flows:
                if flow == "return":
                    propagate_return(pf, origin)
                elif flow.startswith("attr:"):
                    if protected(pf):
                        target = flow.split(":", 1)[1]
                        emit(origin, f"`{target}` in {pf.module.relpath}")
                elif flow.startswith("call:"):
                    _, raw, arg = flow.split(":", 2)
                    target_fn = program.resolve(pf, raw)
                    if target_fn is None:
                        continue
                    if protected(target_fn) and not protected(pf):
                        emit(
                            origin,
                            f"`{target_fn.summary.qualname}` "
                            f"({target_fn.module.relpath})",
                        )
                        continue
                    params = target_fn.summary.params
                    param = (
                        params[int(arg)]
                        if arg.isdigit() and int(arg) < len(params)
                        else arg
                    )
                    token = (target_fn.key, f"param:{param}")
                    if token in visited:
                        continue
                    visited.add(token)
                    follow(
                        target_fn,
                        target_fn.summary.param_flows.get(param, []),
                        origin,
                    )

        def propagate_return(
            pf: ProgramFunction, origin: Tuple[ProgramFunction, RngFact]
        ) -> None:
            token = (pf.key, "ret")
            if token in visited:
                return
            visited.add(token)
            for caller in pf.callers:
                for callee, raw, _site in caller.callees:
                    if callee is not pf:
                        continue
                    flows = caller.summary.result_flows.get(raw, [])
                    if protected(caller) and not protected(pf):
                        emit(
                            origin,
                            f"the return value consumed by "
                            f"`{caller.summary.qualname}` "
                            f"({caller.module.relpath})",
                        )
                    elif flows:
                        follow(caller, flows, origin)

        for pf in program.functions.values():
            if protected(pf):
                # An unseeded ctor *inside* protocol code is SKY201's
                # finding; this rule attributes cross-package flows.
                continue
            for fact in pf.summary.rng:
                if fact.seeding == "seeded":
                    continue
                follow(pf, list(fact.flows), (pf, fact))
        yield from findings
