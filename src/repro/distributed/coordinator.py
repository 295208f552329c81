"""The central server H: shared machinery of the §4 framework.

:class:`Coordinator` implements everything the four algorithms have in
common — preparing sites, fetching representatives (To-Server phase),
broadcasting feedback and combining the returned factors into exact
global probabilities (Server-Delivery phase, Lemma 1), reporting
qualified tuples progressively, and accounting every protocol message
against the paper's bandwidth metric.  Every building block is a
*sans-io* script (``_*_script``) run by the
:class:`~repro.distributed.engine.ScriptEngine` this class extends —
the RPC funnel and both pumps live there; the ``limit=`` buffer is
:mod:`~repro.distributed.topk`.  The strawmen
(:mod:`~repro.distributed.baseline`, :mod:`~repro.distributed.naive`)
subclass it directly; DSUD and e-DSUD are ordering policies of the one
progressive loop in :mod:`~repro.distributed.progressive`.

Fault tolerance
---------------
When the engine's funnel gives up on a site it marks it DOWN instead
of raising.  A DOWN site is excluded from subsequent rounds; the
factors it can no longer contribute are tracked by a
:class:`~repro.fault.coverage.CoverageTracker`, so every affected
result carries its Corollary-1 upper bound and the set of sites that
did contribute.  Bringing a logical site back is one operation,
:meth:`_converge_script`: replay part of that broadcast log onto an
endpoint.  *Recovery* replays what a returning site missed onto the
site itself; *failover* (with a ``replica_manager``) replays the whole
log onto the site's next unused buddy replica and swaps it in;
*failback* does the same for the re-synced primary, unretried; a
failback that aborts is not tried again in that query — the replica
never stopped serving, and its answers are exact.
Run loops call :meth:`_poll_recoveries_script` once per iteration; on
a healthy run none of this sends a single extra message, so accounting
stays bit-identical to the fault-oblivious protocol.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    AsyncGenerator,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.dominance import Preference
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from ..core.tuples import UncertainTuple
from ..fault.coverage import CoverageTracker
from ..fault.fsm import ClusterHealth
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy
from ..net.message import MessageKind, Quaternion
from ..net.stats import LatencyModel, NetworkStats, ProgressLog
from ..net.transport import SiteEndpoint
from .engine import ScriptEngine, _Fanout, _Request, _Rpc
from .runner import RunResult
from .topk import TopKBuffer

if TYPE_CHECKING:  # imported lazily — replica builds on distributed.site
    from ..replica.manager import ReplicaManager

__all__ = ["Coordinator"]

_SERVER = "server"
_SITES = "sites"  # the receivers of one round's fan-out, billed together


class Coordinator(ScriptEngine):
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
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) < len(ids):  # every book is keyed by id: they would never probe each other
            raise ValueError(f"duplicate site id {next(i for i in ids if ids.count(i) > 1)!r}")
        self.threshold = threshold
        self.preference = preference
        super().__init__(
            NetworkStats(latency_model=latency_model or LatencyModel()),
            ClusterHealth(s.site_id for s in self.sites),
            retry_policy,
        )
        self.progress = ProgressLog()
        self.results: List[SkylineMember] = []
        self.iterations = 0
        #: Feedback quaternions shipped per FEEDBACK message.  1 keeps
        #: every message, round, and floating-point product bit-identical
        #: to the paper's per-candidate protocol; k > 1 trades strictly
        #: fewer coordination rounds for slightly staler Local-Pruning
        #: feedback within a round (see docs/performance.md).
        self.batch_size = batch_size
        self.coverage = CoverageTracker(s.site_id for s in self.sites)
        self.coverage.add_tighten_hook(self._tighten_result)
        self._site_by_id = {s.site_id: s for s in self.sites}
        #: Each logical site's name in the books; a failover keeps it.
        self._names = {site_id: f"site-{site_id}" for site_id in ids}
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
        #: Optional replication subsystem: a logical site that goes DOWN
        #: is *failed over* to its next unused replica (the in-flight
        #: round replayed) instead of degrading to Corollary-1 bounds.
        self.replica_manager = replica_manager
        #: Replicas of each logical site tried since its last failback.
        self._buddies_used: Dict[int, int] = {s.site_id: 0 for s in self.sites}
        #: Representative keys each logical site already surrendered —
        #: the catch-up list a promoted replacement fast-forwards over
        #: so it never re-serves a delivered candidate.
        self._delivered_keys: Dict[int, List[int]] = {
            s.site_id: [] for s in self.sites
        }
        #: Verdicts of ``pop_representative`` calls that rode a fan-out,
        #: by logical site, until :meth:`_fetch_representative_script`
        #: settles them (a failed pop, an empty one, a delivery) at the
        #: point the sequential protocol would have popped.
        self._rode: Dict[int, Tuple[bool, object]] = {}
        #: Logical sites currently served by a promoted replica, mapped
        #: to their original primary (the failback target), kept across
        #: a second failover; ``_failback_aborted`` holds those whose
        #: primary is probed again only once the logical site is DOWN.
        self._failed_over: Dict[int, SiteEndpoint] = {}
        self._failback_aborted: set = set()
        #: Optional shared liveness snapshot (the serving layer hands
        #: the same book to every in-flight query so a dead shared site
        #: is probed once per epoch, not once per query).  ``None`` —
        #: the solo default — probes in-band exactly as before.
        self.liveness_book = liveness_book

    # ------------------------------------------------------------------
    # protocol building blocks
    # ------------------------------------------------------------------

    def _prepare_sites_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[int]]:
        """Local computing phase on every site; returns |SKY(D_i)| sizes.

        One fan-out: the sites prepare independently.  A site that
        fails its PREPARE (after retries) is marked DOWN and simply
        contributes no size — the query proceeds over the reachable
        partitions.
        """
        sites = list(self.sites)  # a failover below swaps entries of self.sites
        for site in sites:
            self.stats.bill(MessageKind.PREPARE, _SERVER, self._names[site.site_id])
        attempts = yield _Fanout(
            tuple((_Rpc(site, "prepare", (self.threshold,)),) for site in sites)
        )
        sizes = []
        for site, ((ok, size),) in zip(sites, attempts):
            if not ok:
                # A buddy replica (if any) can take over from the very
                # first round — its prepare is billed by the convergence.
                converged = yield from self._failover_script(site.site_id)
                if converged is None:
                    continue
                size, _factors = converged
            else:
                self._prepared.add(site.site_id)
                self.stats.bill(MessageKind.PREPARE_REPLY, self._names[site.site_id], _SERVER)
            sizes.append(size)
        self.stats.record_round()
        return sizes

    def _live_endpoints(self, sites: Sequence[SiteEndpoint]) -> List[SiteEndpoint]:
        """The endpoints serving these logical sites now, DOWN ones left out.

        Re-resolves through the live endpoint table: run loops hold
        references from query start, which go stale after a failover or
        failback swaps the logical site's serving endpoint.  While the
        cluster is healthy no site's FSM is read.
        """
        live = [self._site_by_id.get(s.site_id, s) for s in sites]
        if self.health.any_down:
            return [s for s in live if not self.health.is_down(s.site_id)]
        return live

    def _fan_out_pops_script(
        self, sites: Sequence[SiteEndpoint], request: bool = True
    ) -> Generator[Optional[_Request], Any, None]:
        """To-Server phase against several sites: their pops in one wave.

        Only the independent half: each NEXT_REQUEST is billed
        (``request=False`` models the initial fill, where every site
        pushes its head spontaneously and none is paid) and each pop
        issued; the verdicts wait in ``_rode`` for the per-site
        :meth:`_fetch_representative_script` calls that must follow, in
        site order, which settle them one by one as if popped one by
        one.  A site that is DOWN is left out: its pop is not a plain
        call (a replica may have to be promoted first), so it takes
        the ordinary path there.
        """
        live = self._live_endpoints(sites)
        if request and live:
            self.stats.bill(MessageKind.NEXT_REQUEST, _SERVER, _SITES, messages=len(live))
        attempts = yield _Fanout(
            tuple((_Rpc(site, "pop_representative"),) for site in live)
        )
        for site, (verdict,) in zip(live, attempts):
            self._rode[site.site_id] = verdict

    def _fetch_representative_script(
        self, site: SiteEndpoint, request: bool = True
    ) -> Generator[Optional[_Request], Any, Optional[Quaternion]]:
        """To-Server phase against one site.

        A pop that already rode a fan-out (a broadcast's ``refill``, or
        :meth:`_fan_out_pops_script`) was billed and issued there; its
        verdict is settled here.  Otherwise the NEXT_REQUEST is paid
        (unless ``request=False``, see above) and the pop issued first.
        Returns ``None`` both for a genuinely exhausted site and for an
        unreachable one — in the latter case the FSM records the loss
        and :meth:`_poll_recoveries_script` can undo it later.
        """
        verdict = self._rode.pop(site.site_id, None)
        if verdict is None:
            if self.health.is_down(site.site_id) and (
                yield from self._failover_script(site.site_id)
            ) is None:
                return None
            live = self._site_by_id[site.site_id]
            if request:
                self.stats.bill(MessageKind.NEXT_REQUEST, _SERVER, self._names[site.site_id])
            verdict = yield _Rpc(live, "pop_representative")
        ok, quaternion = verdict
        if not ok:
            # Died on the pop: promote a replica (which fast-forwards
            # past everything already delivered) and re-issue the pop
            # against it — the To-Server phase continues exactly.
            if (yield from self._failover_script(site.site_id)) is None:
                return None
            replica = self._site_by_id[site.site_id]
            ok, quaternion = yield _Rpc(replica, "pop_representative")
            if not ok:
                return None
        if quaternion is None:
            self._site_tail_cap[site.site_id] = 0.0
            self.stats.bill(MessageKind.EXHAUSTED, self._names[site.site_id], _SERVER)
            return None
        # The queue pops in descending order: whatever the site still
        # holds is bounded by what it just delivered.
        self._site_tail_cap[site.site_id] = quaternion.local_probability
        self.stats.bill(MessageKind.REPRESENTATIVE, self._names[site.site_id], _SERVER)
        self._delivered_keys[site.site_id].append(quaternion.key)
        return quaternion

    def _initial_fill_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[Quaternion]]:
        """First To-Server round: every site's head, in parallel."""
        sites = list(self.sites)
        yield from self._fan_out_pops_script(sites, request=False)
        out = []
        for site in sites:
            quaternion = yield from self._fetch_representative_script(
                site, request=False
            )
            if quaternion is not None:
                out.append(quaternion)
        self.stats.record_round(tuples_in_round=len(out))
        return out

    @staticmethod
    def _fold(
        quaternions: Sequence[Quaternion], triples: List[Tuple[int, int, float]]
    ) -> Tuple[List[float], List[Dict[int, float]]]:
        """Lemma 1 over one broadcast's ``(site_id, batch_index, factor)`` triples.

        Returns, aligned with ``quaternions``, each tuple's global
        probability — its local probability times the Eq.-9 factors, in
        the order the triples arrive (site order: the multiplication
        order is part of the bit-identity contract) — and the factors
        themselves by site.  With full coverage the product is exact;
        with sites down it is the Corollary-1 upper bound (each missing
        factor ≤ 1), and the coverage tracker knows which.
        """
        probabilities = [q.local_probability for q in quaternions]
        factors: List[Dict[int, float]] = [{} for _ in quaternions]
        for site_id, index, factor in triples:
            probabilities[index] *= factor
            factors[index][site_id] = factor
        return probabilities, factors

    def _broadcast_probes_batch_script(
        self, quaternions: Sequence[Quaternion], refill: Sequence[SiteEndpoint] = ()
    ) -> Generator[Optional[_Request], Any, List[Tuple[int, int, float]]]:
        """Deliver a batch of feedback tuples; return per-tuple factors.

        Server-Delivery + Local-Pruning round for up to ``batch_size``
        candidates, advancing the simulated clock by one parallel
        round.  Returns ``(site_id, batch_index, factor)`` triples for
        :meth:`_fold` and does all the accounting.  Each live site
        receives *one* FEEDBACK message carrying every batch tuple it
        did not originate (billed at k tuples — the paper's metric
        counts tuples, not envelopes) and answers with one PROBE_REPLY
        carrying k scalars.  The whole batch costs a single parallel
        round.  This is the only broadcast path: at k = 1 every site's
        share is a single tuple, so the round is the paper's
        per-candidate protocol — one ``probe_and_prune`` RPC and one
        one-tuple FEEDBACK per target, never the batch RPC.

        ``refill`` names the origin sites the caller will ask for their
        next representative right after this round (DSUD and e-DSUD do
        so unconditionally).  Those pops do not depend on any other
        site's reply, so they *ride* this fan-out: an origin's lane is
        its probe share, if it has one, followed by its
        ``pop_representative`` — the calls each site sees, and their
        order, are the sequential protocol's.  An origin that is DOWN
        gets no riding pop, and one whose lane fails before the pop is
        not billed for it: both take the ordinary path afterwards.  A
        pop that was reached leaves its verdict for
        :meth:`_fetch_representative_script` to settle after the caller
        has reported this round's results; the refill keeps its own
        ``record_round`` there, so the simulated clock still counts it
        as a round of its own.

        Accounting is one bill per kind per round: FEEDBACK for every
        site sent a share (DOWN sites are never sent to, so never
        billed), NEXT_REQUEST for every pop that rode, and PROBE_REPLY
        for every site that answered — a site that dies mid-broadcast
        costs the attempt, not the reply.
        """
        quaternions = list(quaternions)
        if not quaternions:
            return []
        for q in quaternions:
            self.coverage.open(q.tuple.key, q.site, q.tuple, q.local_probability)
        pops = {
            site.site_id: _Rpc(site, "pop_representative")
            for site in self._live_endpoints(refill)
        }
        # One pass: a site not DOWN probes every batch tuple it did not
        # originate (an origin has none at k = 1) in one batched RPC, or
        # a one-tuple share in one per-tuple probe; a riding pop follows.
        k = len(quaternions)
        everyone = list(range(k))
        tuples = [q.tuple for q in quaternions]
        origins = {q.site for q in quaternions}
        check = self.health.any_down
        plan = []  # (site, indices of the batch tuples it probes)
        lanes: List[Tuple[_Rpc, ...]] = []
        riders = []  # (lane index, the pop that closes that lane)
        total_tuples = 0
        for site in self.sites:
            site_id = site.site_id
            if check and self.health.is_down(site_id):
                continue
            if site_id not in origins:
                indices, ts = everyone, tuples
            else:
                indices = [i for i, q in enumerate(quaternions) if q.site != site_id] if k > 1 else []
                if not indices:
                    continue
                ts = [tuples[i] for i in indices]
            plan.append((site, indices))
            total_tuples += len(ts)
            if len(ts) > 1:
                lane: Tuple[_Rpc, ...] = (_Rpc(site, "probe_and_prune_batch", (ts,)),)
            else:
                lane = (_Rpc(site, "probe_and_prune", (ts[0],)),)
            pop = pops.pop(site_id, None)
            if pop is not None:
                riders.append((len(lanes), pop))
                lane += (pop,)
            lanes.append(lane)
        if plan:
            self.stats.bill(
                MessageKind.FEEDBACK, _SERVER, _SITES, tuples=total_tuples, messages=len(plan)
            )
        # An origin with no share of its own (every origin at k = 1)
        # pops in a lane of its own, after the probe lanes.
        for pop in pops.values():
            riders.append((len(lanes), pop))
            lanes.append((pop,))
        attempts = yield _Fanout(tuple(lanes))
        rode = 0
        for index, pop in riders:
            # A pop rode — and is billed — only if its lane got that
            # far; its verdict leaves the probe results it followed.
            if len(attempts[index]) == len(lanes[index]):
                rode += 1
                self._rode[pop.site.site_id] = attempts[index].pop()
        if rode:
            self.stats.bill(MessageKind.NEXT_REQUEST, _SERVER, _SITES, messages=rode)
        out = []
        answered = 0
        for (site, indices), results in zip(plan, attempts):
            ok, reply = results[0]
            if not ok:
                # Mid-round casualty: a promoted replica supplies the
                # whole batch's factors through the convergence replay
                # (billed there as FAILOVER_PROBE/PROBE_REPLY and
                # already contributed to the coverage books).
                converged = yield from self._failover_script(site.site_id)
                if converged is None:
                    continue  # factors stay missing in the coverage books
                for index in indices:
                    factor = converged[1].get(quaternions[index].tuple.key)
                    if factor is not None:
                        out.append((site.site_id, index, factor))
                continue
            answered += 1
            factors = reply.factors if len(indices) > 1 else (reply.factor,)
            for index, factor in zip(indices, factors):
                self.coverage.contribute(
                    quaternions[index].tuple.key, site.site_id, factor
                )
                out.append((site.site_id, index, factor))
        if answered:
            self.stats.bill(MessageKind.PROBE_REPLY, _SITES, _SERVER, messages=answered)
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
        self.stats.bill(MessageKind.RESULT, _SERVER, "client")
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
    # convergence: recovery, failover and failback
    # ------------------------------------------------------------------

    def _poll_recoveries_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[SiteEndpoint]]:
        """Give every DOWN site one chance to come back; drive failback.

        Free while the cluster is healthy (a single flag check).  Each
        DOWN site gets one unretried liveness probe (a CONTROL
        message); if it answers, it converges — re-probed for every
        Eq.-9 factor it owes, tightening and possibly retracting
        degraded results.  A site that stays dead is failed over to its
        next unused buddy instead (most failovers happen earlier, inline
        at the faulting RPC).  Either way the site is returned so the
        iteration policy can resume fetching its candidates.  Then each
        failed-over primary that answers its own liveness probe is
        re-synced and converged back in: a failback, invisible to the
        run loops — or, once every buddy is lost, a recovery, returned.
        A failback that aborts is not retried while the replica serves
        (no further probe, digest exchange or ``prepare``: the replica
        is exact); only a later DOWN gets that primary probed again.
        """
        if not self.health.any_down and not self._failed_over:
            return []
        recovered: List[SiteEndpoint] = []
        for site_id in self.health.down_sites():
            site = self._site_by_id[site_id]
            if (yield from self._probe_liveness_script(site)):
                self.health.mark_recovering(site_id, "liveness probe answered")
                converged = yield from self._converge_script(site_id, site)
                if converged is not None:
                    self.health.mark_up(site_id, "reintegration complete")
                    self.stats.sites_recovered += 1
            else:
                converged = yield from self._failover_script(site_id)
            if converged is not None:
                recovered.append(self._site_by_id[site_id])
        for site_id in sorted(self._failed_over):
            primary = self._failed_over[site_id]
            down = self.health.is_down(site_id)  # every buddy lost: a recovery
            if (site_id in self._failback_aborted and not down) or not (
                yield from self._probe_liveness_script(primary, kind="primary")
            ):
                continue
            # Writes may have been forwarded while the primary was away.
            self.replica_manager.resync(site_id, self._site_by_id[site_id], primary, self.stats)
            if down:
                self.health.mark_recovering(site_id, "primary answered")
            if (yield from self._converge_script(site_id, primary)) is not None:
                del self._failed_over[site_id]
                self._failback_aborted.discard(site_id)
                self._buddies_used[site_id] = 0
                self.stats.sites_recovered += 1
                if down:
                    recovered.append(primary)
                else:
                    self.stats.failbacks += 1
            elif not down:
                self._failback_aborted.add(site_id)
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
        self.stats.bill(MessageKind.CONTROL, _SERVER, self._names[endpoint.site_id])
        alive, _size = yield _Rpc(endpoint, "queue_size", raw=True)
        if book is not None:
            book.record(key, alive)
        return alive

    def _failover_script(
        self, site_id: int
    ) -> Generator[Optional[_Request], Any, Optional[Tuple[int, Dict[int, float]]]]:
        """Re-target a DOWN logical site at its next unused buddy replica.

        Walk the site's replica list in placement order from the first
        buddy not tried since its last failback, until one converges;
        ``_failed_over`` keeps the original primary (the failback
        target).  Returns what :meth:`_converge_script` returns — on
        success the site is UP, served by the replica (``_site_by_id``),
        every Eq.-9 factor the dead endpoint owed recovered; ``None``
        when the site is not DOWN or no unused buddy converges.
        """
        if self.replica_manager is None or not self.health.is_down(site_id):
            return None
        serving = self._site_by_id[site_id]
        buddies = self.replica_manager.replicas.get(site_id, [])
        for _host, replica in buddies[self._buddies_used[site_id]:]:
            self._buddies_used[site_id] += 1
            self.health.mark_recovering(site_id, "failover: promoting buddy replica")
            converged = yield from self._converge_script(site_id, replica)
            if converged is not None:
                self._failed_over.setdefault(site_id, serving)
                self.stats.failovers += 1
                return converged
        return None

    def _converge_script(
        self, site_id: int, endpoint: SiteEndpoint
    ) -> Generator[Optional[_Request], Any, Optional[Tuple[int, Dict[int, float]]]]:
        """Replay the query's broadcast log onto ``endpoint``; swap it in if new.

        ``coverage`` is the log.  Recovery converges the endpoint that
        already serves ``site_id``; failover and failback converge a
        *replacement* (``swap``).  Every step is billed:

        1. ``prepare(q)`` when swapping, or when the site never finished
           PREPARE — deterministic, so a replacement's queue matches its
           twin's initial queue exactly.
        2. The replay, in broadcast order, of every ``probe_and_prune``
           the site missed (``FEEDBACK``) or — for a replacement, which
           saw none — of every broadcast from another origin
           (``FAILOVER_PROBE``).  The replies rebuild the Local-Pruning
           state bit-for-bit and, via ``coverage.contribute`` (a no-op
           for factors already supplied), recover any Eq.-9 factor
           still owed, firing the tighten hooks that re-score reported
           results and buffered top-k entries.
        3. For a replacement, ``fast_forward`` over the representatives
           already surrendered (keys only: one zero-tuple CONTROL
           message) so it never re-serves a delivered candidate; then
           the swap.

        When ``endpoint`` is the failed-over primary of an UP site
        (failback), the calls are unretried and leave the FSM alone: a
        replica keeps serving the logical site.

        Returns ``(|SKY(D_i)|, replayed factors by key)`` — the size is
        0 when nothing was prepared; ``None`` if an RPC failed.
        """
        swap = endpoint is not self._site_by_id[site_id]
        raw = endpoint is self._failed_over.get(site_id) and site_id not in self.health.unhealthy
        name = self._names[site_id]
        size = 0
        if swap or site_id not in self._prepared:
            self.stats.bill(MessageKind.PREPARE, _SERVER, name)
            ok, size = yield _Rpc(endpoint, "prepare", (self.threshold,), raw=raw)
            if not ok:
                return None
            self._prepared.add(site_id)
            self.stats.bill(MessageKind.PREPARE_REPLY, name, _SERVER)
        if swap:
            replay = [c for c in self.coverage.entries() if c.origin != site_id]
        else:
            replay = self.coverage.missing_from(site_id)
        factors: Dict[int, float] = {}
        for cov in replay:
            self.stats.bill(
                MessageKind.FAILOVER_PROBE if swap else MessageKind.FEEDBACK, _SERVER, name
            )
            ok, reply = yield _Rpc(endpoint, "probe_and_prune", (cov.tuple,), raw=raw)
            if not ok:
                return None
            self.stats.bill(MessageKind.PROBE_REPLY, name, _SERVER)
            factors[cov.key] = reply.factor
            self.coverage.contribute(cov.key, site_id, reply.factor)
        if swap:
            delivered = self._delivered_keys[site_id]
            if delivered:
                self.stats.bill(MessageKind.CONTROL, _SERVER, name)
                ok, _ = yield _Rpc(endpoint, "fast_forward", (delivered,), raw=raw)
                if not ok:
                    return None
            self._site_by_id[site_id] = endpoint
            self.sites[:] = [endpoint if s.site_id == site_id else s for s in self.sites]
        if replay:
            self.stats.record_round(tuples_in_round=len(replay))
        return int(size), factors

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
        """:meth:`steps` for event-loop callers: the awaiting pump.

        Runs the *same* ``_steps`` script through
        :meth:`~repro.distributed.engine.ScriptEngine._apump`, which
        awaits what an endpoint method returns when it is awaitable
        and overlaps a fan-out's lanes; one coordinator can mix sync
        and async endpoints.  Scheduling points surface as
        async-iterator items, exactly one per sync ``steps()`` item —
        drive with ``async for`` and read :meth:`afinish` afterwards.
        A cancelled or abandoned iteration cancels the calls in flight
        and closes every lane and the script, leaving sites and
        accounting books consistent at the last completed request
        boundary.
        """
        self.progress.restart_clock()
        pump = self._apump(self._steps())
        try:
            async for _ in pump:
                yield
        finally:
            # ``async for`` does not close what it iterates: without
            # this an ``aclose()`` here would leave the script open
            # until the pump is garbage-collected.
            await pump.aclose()

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
