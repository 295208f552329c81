"""The central server H: shared machinery of the §4 framework.

:class:`Coordinator` implements everything the four algorithms have in
common — preparing sites, fetching representatives (To-Server phase),
broadcasting feedback and combining the returned factors into exact
global probabilities (Server-Delivery phase, Lemma 1), reporting
qualified tuples progressively, and accounting every protocol message
against the paper's bandwidth metric.  The concrete algorithms
(:mod:`~repro.distributed.baseline`, :mod:`~repro.distributed.naive`,
:mod:`~repro.distributed.dsud`, :mod:`~repro.distributed.edsud`)
subclass it and supply only their iteration policy.

One path per behaviour
----------------------
Every building block exists once, as a *sans-io* generator script
(``_*_script``) that yields :class:`_Rpc`/:class:`_Fanout` descriptors
instead of touching a site; a broadcast of k feedback tuples is one
script for every k ≥ 1.  :meth:`Coordinator._lower` expands the
descriptors through the one RPC funnel (:meth:`Coordinator._rpc_script`)
into what a blocking and an event-loop caller must do differently, and
two thin pumps do it: :meth:`Coordinator.steps` (``_drive(script)`` for
a single building block) and :meth:`Coordinator.asteps`.  Neither pump
contains any bookkeeping, so answers, message books, and FSM journals
do not depend on which one ran the query.

Fault tolerance
---------------
Every coordinator→site RPC goes through :meth:`Coordinator._rpc_script`,
which retries transport faults under an optional
:class:`~repro.fault.retry.RetryPolicy` and, when retries are
exhausted, escalates to the per-site lifecycle FSM
(:class:`~repro.fault.fsm.ClusterHealth`) instead of raising.  A
DOWN site is excluded from subsequent rounds; the factors it can no
longer contribute are tracked by a
:class:`~repro.fault.coverage.CoverageTracker`, so every affected
result carries its Corollary-1 upper bound and the set of sites that
did contribute.  Run loops run :meth:`_poll_recoveries_script` once per
iteration: a DOWN site that answers a liveness probe is re-probed for
every factor it owes (tightening — possibly retracting — degraded
results) and handed back to the iteration policy via the sites list
the poll returns.  On a healthy run none of this machinery sends a
single extra message, so accounting stays bit-identical to the
fault-oblivious protocol.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncGenerator,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.dominance import Preference
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from ..core.tuples import UncertainTuple
from ..fault.coverage import CoverageTracker, TupleCoverage
from ..fault.errors import RETRYABLE_FAULTS
from ..fault.fsm import ClusterHealth
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy, attempt_loop
from ..net.message import Message, MessageKind, Quaternion
from ..net.stats import LatencyModel, NetworkStats, ProgressLog
from ..net.transport import SiteEndpoint
from .runner import RunResult

if TYPE_CHECKING:  # imported lazily — replica builds on distributed.site
    from ..replica.manager import ReplicaManager

__all__ = ["Coordinator", "TopKBuffer", "BufferedResult"]

_SERVER = "server"

#: The emission callback drains hand results to (Coordinator.report).
ReportFn = Callable[[UncertainTuple, float], object]


@dataclass(frozen=True)
class _Rpc:
    """One site RPC a protocol script asks to have performed.

    The protocol building blocks are *sans-io* generators: instead of
    calling sites directly they yield ``_Rpc`` descriptors and receive
    the ``(ok, value)`` verdict back through ``send()``.  Every
    descriptor is expanded by :meth:`Coordinator._rpc_script` — retry,
    FSM, and accounting live there, in the script, so the verdict does
    not depend on which pump carried the call.

    ``raw=True`` requests a single unretried attempt with no stats or
    FSM side effects (the liveness-probe shape): the verdict is
    ``(alive, value)`` where a transport fault means ``(False, None)``.
    """

    site: SiteEndpoint
    method: str
    args: Tuple[Any, ...] = ()
    raw: bool = False


@dataclass(frozen=True)
class _Fanout:
    """A one-round broadcast: one sequential RPC plan per target site.

    Each inner tuple is one site's call plan (stop on the first failed
    call).  Plans run one after another in site order, under either
    pump — that keeps the per-endpoint call order deterministic under
    chaos schedules, and it is what the simulated clock already assumes
    (a broadcast is billed as one parallel round whatever the wall
    clock did).  The reply is a list of per-plan ``(ok, value)`` result
    lists, aligned with the input.
    """

    plans: Tuple[Tuple[_Rpc, ...], ...] = ()


#: What a protocol script may yield: a request, or ``None`` for a
#: scheduling point.
_Request = Union[_Rpc, _Fanout]

#: What :meth:`Coordinator._lower` asks of a pump.
_Op = Union[None, Callable[[], Any], float]

#: ``retry_policy=None`` means exactly this: the first transport fault
#: is terminal.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


@dataclass
class BufferedResult:
    """One resolved, qualified tuple waiting inside a :class:`TopKBuffer`.

    ``coverage`` is the *live* :class:`TupleCoverage` the broadcast
    opened — shared with the coordinator's tracker, so a recovered
    site's re-probe tightens :attr:`effective` in place instead of the
    entry staying frozen at its offer-time probability.  ``origin`` and
    ``seq`` namespace the ordering tiebreak: two tuples that share a
    key across sites never fall through to comparing
    :class:`UncertainTuple` objects.
    """

    tuple: UncertainTuple
    probability: float                        # offer-time global probability
    coverage: Optional[TupleCoverage] = None  # live Corollary-1 books
    origin: int = -1
    seq: int = 0

    @property
    def effective(self) -> float:
        """The current probability: exact, or the live Corollary-1 bound."""
        if self.coverage is not None:
            return self.coverage.upper_bound
        return self.probability

    @property
    def exact(self) -> bool:
        """True when every site's Eq.-9 factor is folded in (Lemma 1)."""
        return self.coverage is None or self.coverage.exact

    def sort_key(self) -> Tuple[float, int, int, int]:
        """Deterministic total order: probability desc, then (key, origin)."""
        return (-self.effective, self.tuple.key, self.origin, self.seq)


class TopKBuffer:
    """Order-correct top-k emission for progressive coordinators.

    The iteration policies resolve candidates in *bound* order, not in
    exact-probability order, so under a result limit a resolved tuple
    may only be emitted once nothing still unresolved could beat it.
    The buffer holds resolved qualified tuples and releases one only
    when its probability is **exact** (all Eq.-9 factors present) and
    **strictly** greater than both the caller-supplied cap on
    everything unresolved and every other buffered entry's Corollary-1
    bound; k emitted results end the query — that early stop is the
    whole bandwidth win of ``limit=``.

    Emission rules, deterministic by construction:

    * **Tie rule** — a probability merely *equal* to the cap is held:
      an unresolved candidate could still tie, and with equal exact
      probabilities the ``(key, origin)`` order must decide.  Once the
      tied candidates are all buffered, ties emit in ascending
      ``(key, origin)`` order.
    * **Degraded entries** — an entry whose probability is a mere
      Corollary-1 upper bound (a site was DOWN during its broadcast)
      is never released by :meth:`drain`; it re-scores in place as
      recovered sites are re-probed, and is retracted silently if its
      bound sinks below ``threshold``.  Only :meth:`flush` (natural
      termination, nothing left to resolve or recover) emits inexact
      entries, in bound order — the coordinator then surfaces them via
      ``CoverageReport.degraded``.
    * **Bounded memory** — at most ``limit`` pending entries whenever
      everything buffered is exact; an entry is dropped only when
      ``limit - emitted`` *exact* entries provably outrank it forever
      (exact values are final and a bound only ever decreases, so the
      order cannot invert).
    """

    def __init__(self, limit: int, threshold: float = 0.0) -> None:
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit!r}")
        self.limit = limit
        self.threshold = threshold
        self.emitted = 0
        self._entries: List[BufferedResult] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Pending entries that could still be emitted."""
        return self.limit - self.emitted

    def offer(
        self,
        t: UncertainTuple,
        probability: float,
        coverage: Optional[TupleCoverage] = None,
    ) -> None:
        """Buffer one resolved qualified tuple (with its live coverage)."""
        self._entries.append(
            BufferedResult(
                tuple=t,
                probability=probability,
                coverage=coverage,
                origin=coverage.origin if coverage is not None else -1,
                seq=next(self._seq),
            )
        )
        self._entries.sort(key=BufferedResult.sort_key)
        self._trim()

    def _trim(self) -> None:
        """Drop tail entries provably outside the remaining capacity.

        Sound only when the ``capacity`` best entries are all exact:
        their values are final, and the tail's bound can only decrease,
        so the tail can never climb back in.  While any leading entry
        is inexact everything is kept — its bound may tighten below the
        tail.
        """
        while len(self._entries) > self.capacity and all(
            entry.exact for entry in self._entries[: self.capacity]
        ):
            self._entries.pop()

    def _prune_retracted(self) -> None:
        """Drop entries a re-probe has pushed below the threshold.

        They were never emitted, so the progressive guarantee holds:
        tightening retracts *buffered* state, never a reported tuple.
        """
        if self.threshold > 0.0:
            self._entries = [
                e for e in self._entries if e.effective >= self.threshold
            ]

    def inexact_entries(self) -> List[BufferedResult]:
        """Pending entries whose probability is still a mere upper bound."""
        return [e for e in self._entries if not e.exact]

    def inexact_cap(self) -> float:
        """The largest Corollary-1 bound among pending inexact entries."""
        return max(
            (e.effective for e in self._entries if not e.exact), default=0.0
        )

    def drain(self, remaining_cap: float, report: ReportFn) -> bool:
        """Emit everything provably next-best; True once the limit is hit.

        An entry is emittable only when it is exact and its probability
        strictly beats ``remaining_cap`` *and* every other pending
        entry's bound — see the class docstring for the tie and
        degraded-entry rules.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries[0]
            if not head.exact:
                break
            if head.effective <= max(remaining_cap, self.inexact_cap()):
                break
            self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        self._trim()
        return self.emitted >= self.limit

    def flush(self, report: ReportFn) -> bool:
        """Natural termination: nothing unresolved (or recoverable) remains.

        Exact entries emit at their exact probability; entries still
        inexact — their sites stayed DOWN to the end — emit at their
        Corollary-1 upper bound, in bound order, and the coordinator
        annotates them through ``CoverageReport.degraded``.  Entries
        beyond the limit stay pending for that same disclosure.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        return self.emitted >= self.limit


class Coordinator:
    """Base class for the central server of a distributed skyline query."""

    algorithm = "abstract"

    def __init__(
        self,
        sites: Sequence[SiteEndpoint],
        threshold: float,
        preference: Optional[Preference] = None,
        latency_model: Optional[LatencyModel] = None,
        limit: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: int = 1,
        replica_manager: Optional["ReplicaManager"] = None,
        liveness_book: Optional[LivenessBook] = None,
    ) -> None:
        if not sites:
            raise ValueError("a distributed query needs at least one site")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold q must be in (0, 1], got {threshold!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size!r}")
        self.sites = list(sites)
        self.threshold = threshold
        self.preference = preference
        self.stats = NetworkStats(latency_model=latency_model or LatencyModel())
        self.progress = ProgressLog()
        self.results: List[SkylineMember] = []
        self.iterations = 0
        #: ``None`` keeps single-attempt semantics: the first transport
        #: fault marks the site DOWN.  A policy inserts retries (with
        #: backoff) between the fault and that escalation.
        self.retry_policy = retry_policy
        #: Feedback quaternions shipped per FEEDBACK message.  1 keeps
        #: every message, round, and floating-point product bit-identical
        #: to the paper's per-candidate protocol; k > 1 trades strictly
        #: fewer coordination rounds for slightly staler Local-Pruning
        #: feedback within a round (see docs/performance.md).
        self.batch_size = batch_size
        self.health = ClusterHealth(s.site_id for s in self.sites)
        self.coverage = CoverageTracker(s.site_id for s in self.sites)
        self.coverage.add_tighten_hook(self._tighten_result)
        self._site_by_id = {s.site_id: s for s in self.sites}
        self._prepared: set = set()
        #: ``limit=k`` makes the query a top-k probabilistic skyline:
        #: the buffer below holds resolved qualified tuples until they
        #: are provably next-best (see :class:`TopKBuffer`); ``None``
        #: reports every resolved candidate straight through.
        self.limit = limit
        self._topk: Optional[TopKBuffer] = (
            TopKBuffer(limit, threshold=threshold) if limit is not None else None
        )
        #: Per-site cap on the local skyline probability of anything
        #: the site has *not yet delivered*: its queue pops in
        #: descending order, so the next candidate is bounded by the
        #: last one fetched (1.0 before the first fetch, 0.0 once
        #: exhausted).  :meth:`_down_sites_cap` reads this for DOWN
        #: sites so a top-k early stop cannot cut off a recovery that
        #: might still surface a better tuple.
        self._site_tail_cap: Dict[int, float] = {
            s.site_id: 1.0 for s in self.sites
        }
        #: Optional replication subsystem: with buddy replicas a
        #: primary that goes DOWN is *failed over* (a replica is
        #: promoted as the logical site's endpoint, the in-flight round
        #: replayed) instead of degrading the query to Corollary-1
        #: bounds.  Provisioning happens before the query books are
        #: bound, so a healthy replicated run bills exactly like an
        #: unreplicated one.
        self.replica_manager = replica_manager
        if replica_manager is not None:
            replica_manager.ensure_provisioned()
            replica_manager.bind_stats(self.stats)
        #: Representative keys each logical site already surrendered —
        #: the catch-up list a promoted replacement fast-forwards over
        #: so it never re-serves a delivered candidate.
        self._delivered_keys: Dict[int, List[int]] = {
            s.site_id: [] for s in self.sites
        }
        #: Logical sites currently served by a promoted replica, mapped
        #: to their original primary endpoint (the failback probe
        #: target).
        self._failed_over: Dict[int, SiteEndpoint] = {}
        #: Optional shared liveness snapshot (the serving layer hands
        #: the same book to every in-flight query so a dead shared site
        #: is probed once per epoch, not once per query).  ``None`` —
        #: the solo default — probes in-band exactly as before.
        self.liveness_book = liveness_book

    # ------------------------------------------------------------------
    # the fault-tolerant RPC funnel (sans-io: shared by both pumps)
    # ------------------------------------------------------------------

    def _rpc_script(
        self, request: _Rpc
    ) -> Generator[_Op, Any, Tuple[bool, object]]:
        """Perform one site RPC; never raises transport faults.

        Returns ``(True, value)`` on success.  On a terminal transport
        fault the site is marked DOWN and ``(False, None)`` is returned
        — the caller degrades instead of unwinding.  Attempts and
        backoffs are *yielded* (see :meth:`_lower`); retry accounting,
        the observed round-trip clock, and FSM transitions happen here,
        so a chaos schedule's transitions and retry books replay
        bit-for-bit under either pump.
        """
        site, method, args = request.site, request.method, request.args
        site_id = site.site_id

        def call() -> object:
            return getattr(site, method)(*args)

        if request.raw:
            value, error = yield call
            return error is None, value
        lifecycle = self.health.lifecycle(site_id)

        def on_retry(attempt: int, delay: float, exc: Exception) -> None:
            self.stats.record_retry(delay)
            lifecycle.record_failure()

        start = time.perf_counter()
        value, error = yield from attempt_loop(
            call, self.retry_policy or _SINGLE_ATTEMPT, site_id, on_retry
        )
        self.stats.record_rpc_time(time.perf_counter() - start)
        if error is not None:
            self.stats.record_failure()
            if not lifecycle.is_down:
                lifecycle.record_failure()
                self.health.mark_down(site_id, reason=f"{method}: {error!r}")
                self.stats.sites_lost += 1
            return False, None
        if not lifecycle.is_up:
            # A retry succeeded while SUSPECT, or a reintegration call
            # succeeded while RECOVERING: either way the site is back.
            self.health.mark_up(site_id, reason=f"{method} succeeded")
        return True, value

    def _lower(
        self, script: Generator[Optional[_Request], Any, Any]
    ) -> Generator[_Op, Any, Any]:
        """Expand a protocol script's requests into pump operations.

        Only what a blocking and an event-loop caller must do
        differently is yielded: ``None`` is a scheduling point; a
        callable is one attempt of one endpoint method (invoke it once,
        answer ``(value, None)``, or ``(None, fault)`` for a
        :data:`RETRYABLE_FAULTS` member); a number is a backoff to
        sleep.  An :class:`_Rpc` lowers to the funnel's attempts and
        backoffs, a :class:`_Fanout` to its plans run back to back in
        site order, each stopping at its first failed call.  Closing
        the lowered generator closes the protocol script, so an
        abandoned query leaves sites and books at the last completed
        request boundary.
        """
        reply: object = None
        try:
            while True:
                try:
                    request = script.send(reply)
                except StopIteration as stop:
                    return stop.value
                if request is None:
                    reply = yield None
                elif isinstance(request, _Rpc):
                    reply = yield from self._rpc_script(request)
                else:
                    rounds: List[List[Tuple[bool, object]]] = []
                    for plan in request.plans:
                        verdicts: List[Tuple[bool, object]] = []
                        for rpc in plan:
                            verdict = yield from self._rpc_script(rpc)
                            verdicts.append(verdict)
                            if not verdict[0]:
                                break
                        rounds.append(verdicts)
                    reply = rounds
        finally:
            script.close()

    # ------------------------------------------------------------------
    # protocol building blocks
    # ------------------------------------------------------------------

    def _prepare_sites_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[int]]:
        """Local computing phase on every site; returns |SKY(D_i)| sizes.

        A site that fails its PREPARE (after retries) is marked DOWN
        and simply contributes no size — the query proceeds over the
        reachable partitions.
        """
        sizes = []
        for site in self.sites:
            self._account(MessageKind.PREPARE, _SERVER, self._name(site))
            ok, size = yield _Rpc(site, "prepare", (self.threshold,))
            if not ok:
                # A buddy replica (if any) can take over from the very
                # first round — its prepare is billed inside _promote.
                promoted = yield from self._failover_script(site.site_id)
                if promoted is None:
                    continue
                _endpoint, size, _factors = promoted
            else:
                self._prepared.add(site.site_id)
                self._account(MessageKind.PREPARE_REPLY, self._name(site), _SERVER)
            sizes.append(size)
        self.stats.record_round()
        return sizes

    def _fetch_representative_script(
        self, site: SiteEndpoint, request: bool = True
    ) -> Generator[Optional[_Request], Any, Optional[Quaternion]]:
        """To-Server phase against one site.

        ``request=False`` models the initial fill, where every site
        pushes its head spontaneously and no NEXT_REQUEST is paid.
        Returns ``None`` both for a genuinely exhausted site and for an
        unreachable one — in the latter case the FSM records the loss
        and :meth:`_poll_recoveries_script` can undo it later.
        """
        # Re-resolve through the live endpoint table: run loops hold
        # references from query start, which go stale after a failover
        # or failback swaps the logical site's serving endpoint.
        site = self._site_by_id.get(site.site_id, site)
        if self.health.is_down(site.site_id):
            promoted = yield from self._failover_script(site.site_id)
            if promoted is None:
                return None
            site = promoted[0]
        if request:
            self._account(MessageKind.NEXT_REQUEST, _SERVER, self._name(site))
        ok, quaternion = yield _Rpc(site, "pop_representative")
        if not ok:
            # Died on the pop: promote a replica (which fast-forwards
            # past everything already delivered) and re-issue the pop
            # against it — the To-Server phase continues exactly.
            promoted = yield from self._failover_script(site.site_id)
            if promoted is None:
                return None
            site = promoted[0]
            ok, quaternion = yield _Rpc(site, "pop_representative")
            if not ok:
                return None
        if quaternion is None:
            self._site_tail_cap[site.site_id] = 0.0
            self._account(MessageKind.EXHAUSTED, self._name(site), _SERVER)
            return None
        # The queue pops in descending order: whatever the site still
        # holds is bounded by what it just delivered.
        self._site_tail_cap[site.site_id] = quaternion.local_probability
        self._account(MessageKind.REPRESENTATIVE, self._name(site), _SERVER)
        self._delivered_keys[site.site_id].append(quaternion.key)
        return quaternion

    def _initial_fill_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[Quaternion]]:
        """First To-Server round: every site's head, in parallel."""
        out = []
        for site in self.sites:
            quaternion = yield from self._fetch_representative_script(
                site, request=False
            )
            if quaternion is not None:
                out.append(quaternion)
        self.stats.record_round(tuples_in_round=len(out))
        return out

    def _broadcast_batch_script(
        self, quaternions: Sequence[Quaternion]
    ) -> Generator[Optional[_Request], Any, List[float]]:
        """Server-Delivery + Local-Pruning round for up to ``batch_size`` candidates.

        Sends each tuple to every reachable site except its origin,
        folds the returned Eq.-9 factors into the global probabilities
        via Lemma 1 (in site order — the multiplication order is part
        of the bit-identity contract), and advances the simulated clock
        by one parallel round.  Returns one probability per quaternion,
        aligned with the input.  With full coverage the product is
        exact; with sites down it is the Corollary-1 upper bound (each
        missing factor ≤ 1), and the coverage tracker knows which.
        """
        quaternions = list(quaternions)
        probabilities = [q.local_probability for q in quaternions]
        triples = yield from self._broadcast_probes_batch_script(quaternions)
        for _site_id, index, factor in triples:
            probabilities[index] *= factor
        return probabilities

    def _broadcast_probes_batch_script(
        self, quaternions: Sequence[Quaternion]
    ) -> Generator[Optional[_Request], Any, List[Tuple[int, int, float]]]:
        """Deliver a batch of feedback tuples; return per-tuple factors.

        Returns ``(site_id, batch_index, factor)`` triples and does all
        the accounting; :meth:`_broadcast_batch_script` and e-DSUD's
        factor-tracking variant both build on it.  Each live site
        receives *one* FEEDBACK message carrying every batch tuple it
        did not originate (billed at k tuples — the paper's metric
        counts tuples, not envelopes) and answers with one PROBE_REPLY
        carrying k scalars.  The whole batch costs a single parallel
        round.  This is the only broadcast path: at k = 1 every site's
        share is a single tuple, so the round is the paper's
        per-candidate protocol — one ``probe_and_prune`` RPC and one
        one-tuple FEEDBACK per target, never the batch RPC.

        Accounting is per-reply: FEEDBACK is billed when the probe is
        *sent* (DOWN sites are never sent to, so never billed), but
        PROBE_REPLY only when the site actually answers — a site that
        dies mid-broadcast costs the attempt, not the reply.

        Endpoints without ``probe_and_prune_batch`` (e.g. region
        aggregators) degrade to per-tuple probe_and_prune RPCs behind
        the same batched accounting.
        """
        quaternions = list(quaternions)
        if not quaternions:
            return []
        for q in quaternions:
            self.coverage.open(q.tuple.key, q.site, q.tuple, q.local_probability)
        plan = []  # (site, indices of batch tuples it must probe)
        total_tuples = 0
        for site in self.sites:
            if self.health.is_down(site.site_id):
                continue
            indices = [
                i for i, q in enumerate(quaternions) if q.site != site.site_id
            ]
            if not indices:
                continue
            plan.append((site, indices))
            self._account(
                MessageKind.FEEDBACK, _SERVER, self._name(site), tuples=len(indices)
            )
            total_tuples += len(indices)

        # Two per-site call shapes, mirrored when decoding replies: one
        # batched RPC, or — for a single-tuple share (every share at
        # k = 1) and for endpoints without probe_and_prune_batch —
        # sequential per-tuple probes whose partial factors still
        # tighten coverage.
        batched = []
        fanout_plans = []
        for site, indices in plan:
            ts = [quaternions[i].tuple for i in indices]
            one_rpc = (
                len(ts) > 1 and getattr(site, "probe_and_prune_batch", None) is not None
            )
            batched.append(one_rpc)
            if one_rpc:
                fanout_plans.append((_Rpc(site, "probe_and_prune_batch", (ts,)),))
            else:
                fanout_plans.append(
                    tuple(_Rpc(site, "probe_and_prune", (t,)) for t in ts)
                )
        attempts = yield _Fanout(tuple(fanout_plans))
        out = []
        for (site, indices), one_rpc, results in zip(plan, batched, attempts):
            if one_rpc:
                ok, reply = results[0]
                factors = list(reply.factors) if ok else []
            else:
                factors = [reply.factor for ok, reply in results if ok]
            if not factors:
                # Mid-round casualty: a promoted replica supplies the
                # whole batch's factors through the replay inside
                # _promote (billed there as FAILOVER_PROBE/PROBE_REPLY
                # and already contributed to the coverage books).
                replayed = yield from self._failover_factors_script(site.site_id)
                if replayed is None:
                    continue  # factors stay missing in the coverage books
                for index in indices:
                    factor = replayed.get(quaternions[index].tuple.key)
                    if factor is not None:
                        out.append((site.site_id, index, factor))
                continue
            self._account(MessageKind.PROBE_REPLY, self._name(site), _SERVER)
            for index, factor in zip(indices, factors):
                self.coverage.contribute(
                    quaternions[index].tuple.key, site.site_id, factor
                )
                out.append((site.site_id, index, factor))
        self.stats.record_round(tuples_in_round=total_tuples)
        return out

    def report(self, t: UncertainTuple, global_probability: float) -> bool:
        """Progressively emit a resolved candidate; True if it qualified.

        Run loops must not call this directly — route emission through
        :meth:`emit` (skylint SKY102), which composes the ``limit=``
        buffer with the coverage books.  ``report`` is the terminal
        client-facing step the buffer drains into.
        """
        if global_probability < self.threshold:
            return False
        self.coverage.watch(t.key)
        self.results.append(SkylineMember(t, global_probability))
        self.progress.report(t.key, global_probability, self.stats)
        self._account(MessageKind.RESULT, _SERVER, "client")
        return True

    # ------------------------------------------------------------------
    # the coverage-aware emission funnel
    # ------------------------------------------------------------------

    def emit(self, t: UncertainTuple, global_probability: float) -> None:
        """Route one resolved candidate through the emission funnel.

        Unlimited queries report straight through.  Under ``limit=``
        the qualified tuple is buffered together with its **live**
        :class:`~repro.fault.coverage.TupleCoverage`, so a probability
        that is only a Corollary-1 upper bound (a site was DOWN during
        the broadcast) is re-scored in place when the recovered site is
        re-probed — never emitted frozen at offer time.
        """
        if self._topk is None:
            self.report(t, global_probability)
            return
        if global_probability < self.threshold:
            return
        coverage = self.coverage.get(t.key)
        if coverage is not None:
            self.coverage.watch(t.key)
        self._topk.offer(t, global_probability, coverage=coverage)

    def drain_topk(self, remaining_cap: float) -> bool:
        """Release provably next-best buffered results; True at k emitted.

        ``remaining_cap`` is the caller's bound on everything still
        unresolved *on reachable sites*; the buffer additionally sees
        the cap on anything a DOWN site might yet surface, so the
        emitted-count early stop cannot terminate the query while a
        recovery could still promote a cheaper tuple above a buffered
        one.  No-op (False) without a ``limit=``.
        """
        if self._topk is None:
            return False
        cap = max(remaining_cap, self._down_sites_cap())
        return self._topk.drain(cap, self.report)

    def finish_topk(self) -> None:
        """Flush the top-k buffer at natural termination.

        Entries still inexact at this point belong to sites that never
        recovered; they emit at their Corollary-1 bound and are
        disclosed via ``CoverageReport.degraded`` by :meth:`run`.
        """
        if self._topk is not None:
            self._topk.flush(self.report)

    def _down_sites_cap(self) -> float:
        """Bound on the global probability of anything a DOWN site holds.

        A site's undelivered candidates are capped by its last
        delivered local probability (descending queue order); before
        any delivery the cap is 1.0.  Healthy clusters pay a single
        flag check.
        """
        if not self.health.any_down:
            return 0.0
        return max(
            self._site_tail_cap[site_id] for site_id in self.health.down_sites()
        )

    # ------------------------------------------------------------------
    # recovery and reintegration
    # ------------------------------------------------------------------

    def _poll_recoveries_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[SiteEndpoint]]:
        """Give every DOWN site one chance to come back; drive failback.

        Free while the cluster is healthy (a single flag check).  Each
        DOWN site gets one unretried liveness probe (a CONTROL
        message); if it answers, the site is re-probed for every Eq.-9
        factor it owes — tightening, and possibly retracting, degraded
        results — and returned so the iteration policy can resume
        fetching its candidates.  A site that stays dead *and* has a
        buddy replica is failed over instead: the replica is promoted
        as the logical site's endpoint and likewise returned.  (Most
        failovers happen earlier, inline at the faulting RPC; this path
        catches sites whose reintegration attempt failed.)  Finally,
        each failed-over primary gets its own liveness probe — on an
        answer it is re-synced and promoted back (failback).
        """
        if not self.health.any_down and not self._failed_over:
            return []
        recovered: List[SiteEndpoint] = []
        for site_id in self.health.down_sites():
            site = self._site_by_id[site_id]
            alive = yield from self._probe_liveness_script(site)
            if not alive:
                promoted = yield from self._failover_script(site_id)
                if promoted is not None:
                    recovered.append(promoted[0])
                continue
            self.health.mark_recovering(site_id, "liveness probe answered")
            reintegrated = yield from self._reintegrate_script(site)
            if reintegrated:
                self.health.mark_up(site_id, "reintegration complete")
                self.stats.sites_recovered += 1
                recovered.append(site)
            else:
                self.health.mark_down(site_id, "reintegration failed")
        yield from self._poll_failbacks_script()
        return recovered

    def _probe_liveness_script(
        self, endpoint: SiteEndpoint, kind: str = "site"
    ) -> Generator[Optional[_Request], Any, bool]:
        """One unretried liveness probe, shared through the book if any.

        Solo (``liveness_book is None``) this is exactly the historical
        in-band probe: one CONTROL message answered by ``queue_size()``.
        With a book, a verdict already recorded this epoch is reused —
        no message is accounted — so many concurrent queries sharing a
        site collapse their probes into one per epoch.  ``kind`` keeps
        the probe of a failed-over *primary* from shadowing the probe
        of the logical site's serving endpoint.
        """
        book = self.liveness_book
        key = (kind, endpoint.site_id)
        if book is not None:
            cached = book.lookup(key)
            if cached is not None:
                return cached
        self._account(MessageKind.CONTROL, _SERVER, self._name(endpoint))
        alive, _size = yield _Rpc(endpoint, "queue_size", raw=True)
        if book is not None:
            book.record(key, alive)
        return alive

    def _reintegrate_script(
        self, site: SiteEndpoint
    ) -> Generator[Optional[_Request], Any, bool]:
        """Bring one RECOVERING site back into the query.

        Prepares it if it never completed PREPARE, then replays every
        broadcast it missed via probe_and_prune — collecting its exact
        factors (tightening the Corollary-1 bounds) *and* delivering
        the feedback its Local-Pruning phase never saw.
        """
        site_id = site.site_id
        if site_id not in self._prepared:
            self._account(MessageKind.PREPARE, _SERVER, self._name(site))
            ok, _size = yield _Rpc(site, "prepare", (self.threshold,))
            if not ok:
                return False
            self._prepared.add(site_id)
            self._account(MessageKind.PREPARE_REPLY, self._name(site), _SERVER)
        owed = self.coverage.missing_from(site_id)
        for cov in owed:
            self._account(MessageKind.FEEDBACK, _SERVER, self._name(site))
            ok, reply = yield _Rpc(site, "probe_and_prune", (cov.tuple,))
            if not ok:
                return False
            self._account(MessageKind.PROBE_REPLY, self._name(site), _SERVER)
            # contribute() notifies the tighten hooks for watched keys:
            # reported results re-score (possibly retract) and buffered
            # top-k entries re-score through their shared TupleCoverage.
            self.coverage.contribute(cov.key, site_id, reply.factor)
        if owed:
            self.stats.record_round(tuples_in_round=len(owed))
        return True

    # ------------------------------------------------------------------
    # replica failover and failback
    # ------------------------------------------------------------------

    def _failover_script(
        self, site_id: int
    ) -> Generator[
        Optional[_Request], Any, Optional[Tuple[SiteEndpoint, int, Dict[int, float]]]
    ]:
        """Re-target a DOWN logical site at its buddy replica.

        Returns ``(endpoint, |SKY(D_i)|, replayed factors by key)`` on
        success — the logical site is UP again, served by the replica,
        and every Eq.-9 factor the dead primary owed has been recovered
        (so ``coverage`` is exact again and the top-k drain stops
        holding tuples back).  ``None`` when no replication is
        configured, the site already failed over once (the replica
        itself died — with one buddy there is no second failover), or
        promotion failed.
        """
        if self.replica_manager is None or site_id in self._failed_over:
            return None
        if not self.health.is_down(site_id):
            return None
        replica = self.replica_manager.replica_for(site_id)
        if replica is None:
            return None
        primary = self._site_by_id[site_id]
        self.health.mark_recovering(site_id, "failover: promoting buddy replica")
        promoted = yield from self._promote_script(site_id, replica)
        if promoted is None:
            # _promote's failing RPC already journalled the fault and
            # marked the site DOWN again; the query stays degraded.
            return None
        size, factors = promoted
        self._failed_over[site_id] = primary
        self.stats.failovers += 1
        return replica, size, factors

    def _failover_factors_script(
        self, site_id: int
    ) -> Generator[Optional[_Request], Any, Optional[Dict[int, float]]]:
        """Fail over and return every factor the promotion replayed."""
        promoted = yield from self._failover_script(site_id)
        if promoted is None:
            return None
        return promoted[2]

    def _promote_script(
        self, site_id: int, endpoint: SiteEndpoint
    ) -> Generator[Optional[_Request], Any, Optional[Tuple[int, Dict[int, float]]]]:
        """Converge a replacement endpoint onto the serving state and swap it in.

        Shared by failover (a replica replaces its dead primary) and
        failback (the re-synced primary replaces the replica).  Three
        steps, each billed:

        1. ``prepare(q)`` rebuilds the candidate queue from the
           replacement's (identical) partition copy — deterministic, so
           the queue matches the twin's initial queue exactly.
        2. Every broadcast the query ever sent to this logical site is
           replayed, in broadcast order, as a tuple-bearing
           ``FAILOVER_PROBE``: the ``probe_and_prune`` replies rebuild
           the Local-Pruning state bit-for-bit (same factors, same
           multiplication order as a never-failed twin) and — via
           ``coverage.contribute`` — recover any Eq.-9 factor still
           owed, firing the tighten hooks that re-score reported
           results and buffered top-k entries back to exactness.
        3. ``fast_forward`` over the representatives already
           surrendered (keys only: one zero-tuple CONTROL message, the
           §3.2 metric counts tuples) so the replacement never
           re-serves a delivered candidate.

        Returns ``(|SKY(D_i)|, replayed factors by key)``; ``None`` if
        the replacement itself faulted (the site is then DOWN again).
        """
        name = self._name(endpoint)
        self._account(MessageKind.PREPARE, _SERVER, name)
        ok, size = yield _Rpc(endpoint, "prepare", (self.threshold,))
        if not ok:
            return None
        self._prepared.add(site_id)
        self._account(MessageKind.PREPARE_REPLY, name, _SERVER)
        factors: Dict[int, float] = {}
        replayed = [cov for cov in self.coverage.entries() if cov.origin != site_id]
        for cov in replayed:
            self._account(MessageKind.FAILOVER_PROBE, _SERVER, name)
            ok, reply = yield _Rpc(endpoint, "probe_and_prune", (cov.tuple,))
            if not ok:
                return None
            self._account(MessageKind.PROBE_REPLY, name, _SERVER)
            factors[cov.key] = reply.factor
            # contribute() is a no-op for factors the dead twin already
            # supplied, and restores exactness for the owed ones.
            self.coverage.contribute(cov.key, site_id, reply.factor)
        delivered = self._delivered_keys[site_id]
        if delivered:
            self._account(MessageKind.CONTROL, _SERVER, name)
            ok, _skipped = yield _Rpc(endpoint, "fast_forward", (delivered,))
            if not ok:
                return None
        self._site_by_id[site_id] = endpoint
        for i, s in enumerate(self.sites):
            if s.site_id == site_id:
                self.sites[i] = endpoint
                break
        if replayed:
            self.stats.record_round(tuples_in_round=len(replayed))
        return int(size), factors

    def _poll_failbacks_script(self) -> Generator[Optional[_Request], Any, None]:
        """Probe each failed-over primary; re-sync and re-target on answer.

        The replica keeps serving until its primary both answers a
        liveness probe (one CONTROL message per iteration, mirroring
        the DOWN-site cadence) and survives a full promotion: an
        anti-entropy re-sync of its partition (digest exchange — writes
        may have been forwarded while it was away) followed by the same
        prepare/replay/fast-forward convergence a failover runs.
        Failback is invisible to the run loops — the logical site was
        never out of rotation — so nothing is returned.
        """
        if not self._failed_over or self.replica_manager is None:
            return
        for site_id in sorted(self._failed_over):
            primary = self._failed_over[site_id]
            alive = yield from self._probe_liveness_script(primary, kind="primary")
            if not alive:
                continue
            # Partition re-sync runs in-process against replica state —
            # replicas are always local endpoints, never remote proxies.
            self.replica_manager.resync_primary(site_id)
            promoted = yield from self._promote_script(site_id, primary)
            if promoted is None:
                # The primary died again mid-promotion: the funnel marked the
                # logical site DOWN, but the replica is still serving —
                # restore UP through the legal RECOVERING hop.
                if self.health.is_down(site_id):
                    self.health.mark_recovering(site_id, "failback aborted")
                    self.health.mark_up(site_id, "buddy replica still serving")
                continue
            del self._failed_over[site_id]
            self.stats.failbacks += 1
            self.stats.sites_recovered += 1

    def _tighten_result(self, key: int, bound: float) -> None:
        """Apply a re-probed, tighter bound to an already-reported tuple.

        Registered as a :class:`CoverageTracker` tighten hook, so every
        re-probe of a watched key lands here.  Bounds only ever
        decrease, so tightening can demote a degraded result below
        ``q`` — in which case it is retracted: the degraded answer was
        a superset, and this is the shrink.  Buffered (never reported)
        top-k entries are not in ``results``; they re-score through the
        shared ``TupleCoverage`` and the buffer retracts them lazily on
        its next drain.
        """
        for i, member in enumerate(self.results):
            if member.tuple.key != key:
                continue
            if bound < self.threshold:
                del self.results[i]
            else:
                self.results[i] = SkylineMember(member.tuple, bound)
            return

    # ------------------------------------------------------------------
    # the run loop contract: one script, two thin pumps
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the query; subclasses implement :meth:`_steps`."""
        for _ in self.steps():
            pass
        return self.finish()

    def _pump(
        self, script: Generator[Optional[_Request], Any, Any]
    ) -> Generator[None, None, Any]:
        """The blocking pump: execute a script's lowered operations.

        Yields at each scheduling point and returns the script's value.
        Genuinely synchronous — plain calls and ``time.sleep`` — so it
        may be drawn from inside a running event loop (a benchmark
        draws :meth:`steps` within an ``async def``).
        """
        ops = self._lower(script)
        reply: object = None
        try:
            while True:
                try:
                    op = ops.send(reply)
                except StopIteration as stop:
                    return stop.value
                reply = None
                if op is None:
                    yield
                elif callable(op):
                    try:
                        reply = op(), None
                    except RETRYABLE_FAULTS as exc:
                        reply = None, exc
                else:
                    time.sleep(op)
        finally:
            ops.close()

    def _drive(self, script: Generator[Optional[_Request], Any, Any]) -> Any:
        """Run one protocol script to completion synchronously.

        The one blocking way to execute a building block outside a run
        loop (scheduling points are passed over):
        ``coordinator._drive(coordinator._prepare_sites_script())``.
        """
        pump = self._pump(script)
        while True:
            try:
                next(pump)
            except StopIteration as stop:
                return stop.value

    def steps(self) -> Iterator[None]:
        """Drive the query one scheduling point at a time.

        Progressive coordinators yield once per iteration of their run
        loop; the serving layer interleaves many queries by drawing one
        step from each session per scheduler turn.  The generator owns
        the whole query lifecycle — clock restart on first draw, script
        closed on exhaustion *or* early ``close()`` of the generator.
        Exhaust the generator, then read :meth:`finish` for the
        RunResult.
        """
        self.progress.restart_clock()
        yield from self._pump(self._steps())

    async def asteps(self) -> AsyncGenerator[None, None]:
        """The awaiting pump: :meth:`steps` for event-loop callers.

        Executes the *same* lowered ``_steps`` script, but awaits what
        an endpoint method returns when it is awaitable — endpoints may
        be sync (in-process :class:`LocalSite` forks, chaos wrappers,
        promoted replicas) or async
        (:class:`~repro.net.aio.AsyncRemoteSiteProxy`), and one
        coordinator can mix both — and backs off with
        ``asyncio.sleep``, so a session awaiting a socket reply hands
        the event loop to other sessions instead of blocking the
        scheduler thread.  Scheduling points surface as async-iterator
        items, exactly one per sync ``steps()`` item — drive with
        ``async for`` and read :meth:`afinish` afterwards.  A cancelled
        or abandoned iteration still closes the script, leaving sites
        and accounting books consistent at the last completed request
        boundary.
        """
        self.progress.restart_clock()
        ops = self._lower(self._steps())
        reply: object = None
        try:
            while True:
                try:
                    op = ops.send(reply)
                except StopIteration:
                    return
                reply = None
                if op is None:
                    yield
                elif callable(op):
                    try:
                        value = op()
                        if inspect.isawaitable(value):
                            value = await value
                        reply = value, None
                    except RETRYABLE_FAULTS as exc:
                        reply = None, exc
                else:
                    await asyncio.sleep(op)
        finally:
            ops.close()

    async def afinish(self) -> RunResult:
        """Assemble the RunResult once :meth:`asteps` is exhausted.

        Pure in-memory bookkeeping (no site RPCs), so awaiting it never
        blocks the loop; it exists so async callers never touch the
        sync surface.
        """
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble the RunResult once :meth:`steps` is exhausted."""
        extra = self._extra()
        pruned = [
            getattr(site, "pruned_total", None) for site in self.sites
        ]
        if all(p is not None for p in pruned):
            # Local-pruning effectiveness; available for in-process
            # sites (TCP proxies do not expose internals).
            extra["site_pruned_total"] = float(sum(pruned))
        coverage = self.coverage.report(
            self.health.down_sites(),
            result_keys=[m.tuple.key for m in self.results],
            transitions=[
                f"site-{t.site_id}: {t.old.value} -> {t.new.value} ({t.reason})"
                for t in self.health.transitions()
            ],
            buffered_keys=(
                [e.tuple.key for e in self._topk.inexact_entries()]
                if self._topk is not None
                else ()
            ),
        )
        return RunResult(
            algorithm=self.algorithm,
            answer=ProbabilisticSkyline(self.threshold, list(self.results)),
            stats=self.stats,
            progress=self.progress,
            iterations=self.iterations,
            extra=extra,
            coverage=coverage,
        )

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        """Subclass hook: the iteration policy as a *sans-io* script.

        The script yields two things: ``None`` for a scheduling point
        (one per run-loop iteration — :meth:`steps`/:meth:`asteps`
        surface these to the caller) and :class:`_Rpc`/:class:`_Fanout`
        request descriptors, whose ``(ok, value)`` results come back
        through ``send()``.  Protocol building blocks compose via
        ``yield from self._*_script(...)``, so one iteration policy
        runs under both pumps unchanged.
        """
        raise NotImplementedError

    def _extra(self) -> dict:
        return {}

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def _account(
        self,
        kind: MessageKind,
        sender: str,
        receiver: str,
        tuples: Optional[int] = None,
    ) -> None:
        self.stats.record(
            Message.bearing(kind, sender, receiver, payload=None, tuple_count=tuples)
        )

    @staticmethod
    def _name(site: SiteEndpoint) -> str:
        return f"site-{site.site_id}"
