"""The one progressive run loop of §5; DSUD and e-DSUD are its policies.

The paper introduces e-DSUD as DSUD's protocol with only the choice of
the next broadcast tuple changed (§5.2), so the iteration exists once,
in :meth:`ProgressiveCoordinator._steps`:

    prepare → initial fill → loop { poll recoveries → expunge → select
    → broadcast, the origins' refill pops riding it → emit → settle the
    refills → top-k drain → scheduling point }

What varies between algorithms is an **ordering policy** over the
representatives held at the server, supplied by overriding the plain,
RPC-free hooks below (``docs/algorithms.md`` tabulates the answers).
Lemma 1 makes every broadcast tuple's probability exact whatever order
the policy picks, so a policy changes bandwidth and progressiveness,
never the answer.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Set

from ..net.message import Quaternion
from .coordinator import Coordinator
from .engine import _Request

__all__ = ["ProgressiveCoordinator"]


class ProgressiveCoordinator(Coordinator):
    """The progressive iteration; subclasses supply the ordering policy."""

    #: Sites with nothing left to fetch: their queue ran dry, or they
    #: were unreachable when asked (a recovery reopens them).  Set by
    #: :meth:`_steps` once the initial fill has shown who delivered.
    _exhausted: Set[int]

    # ------------------------------------------------------------------
    # the ordering policy
    # ------------------------------------------------------------------

    def _admit(self, quaternion: Quaternion) -> None:
        """Hold a freshly fetched representative of its site."""
        raise NotImplementedError

    def _select(self) -> List[Quaternion]:
        """Remove and return the next broadcast batch, best first.

        At most ``batch_size`` held representatives, each of which may
        still qualify; an empty list ends the query.
        """
        raise NotImplementedError

    def _remaining_cap(self) -> float:
        """Bound on the global probability of everything unresolved.

        Held representatives and their sites' unfetched tails alike
        (Corollary 1 plus the per-site descending queue order);
        :meth:`drain_topk` adds the cap on whatever a DOWN site might
        still surface.  Read only under ``limit=``.
        """
        raise NotImplementedError

    def _holds(self, site_id: int) -> bool:
        """Whether a recovered site needs no refill: its representative is held."""
        raise NotImplementedError

    def _expunge(self, stalled: bool) -> Sequence[int]:
        """Drop representatives that can never qualify; return their sites.

        Asked before every selection, and again with ``stalled`` when
        selection found nothing while some site still has candidates.
        """
        return ()

    def _learn(self, quaternion: Quaternion, factors: Dict[int, float]) -> None:
        """A broadcast resolved ``quaternion``: its exact Eq.-9 factors by site."""

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        yield from self._prepare_sites_script()
        fill = yield from self._initial_fill_script()
        for quaternion in fill:
            self._admit(quaternion)
        self._exhausted = {s.site_id for s in self.sites} - {q.site for q in fill}

        while True:
            # Reintegrate any crashed site that has come back: its
            # missed factors were already re-probed inside
            # poll_recoveries; here we resume draining its queue.
            for site in (yield from self._poll_recoveries_script()):
                self._exhausted.discard(site.site_id)
                if not self._holds(site.site_id):
                    yield from self._refill_script(site.site_id)
            yield from self._expunge_script(stalled=False)
            heads = self._select()
            if not heads:
                # Nothing held can qualify.  A site that still has
                # candidates can only be hidden behind a representative
                # kept past its bound: drop those and look again.  With
                # every queue spent — or a site unreachable, the poll
                # above was its last chance — the query is complete.
                if len(self._exhausted) < len(self.sites) and (
                    yield from self._expunge_script(stalled=True)
                ):
                    continue
                break
            self.iterations += len(heads)
            # The refills below are unconditional, so their pops ride
            # the broadcast's fan-out instead of trailing it.
            triples = yield from self._broadcast_probes_batch_script(
                heads,
                refill=[
                    self._site_by_id[head.site]
                    for head in heads
                    if head.site not in self._exhausted
                ],
            )
            probabilities, factors = self._fold(heads, triples)
            for head, exact in zip(heads, factors):
                self._learn(head, exact)
            for head, global_probability in zip(heads, probabilities):
                # The coverage-aware funnel: reports directly without a
                # limit, otherwise buffers with the live TupleCoverage.
                self.emit(head.tuple, global_probability)
            for head in heads:
                yield from self._refill_script(head.site)
            if self.limit is not None and self.drain_topk(self._remaining_cap()):
                return
            # One iteration done — a scheduling point for the serving
            # layer to interleave other sessions.
            yield
        self.finish_topk()

    def _refill_script(self, site_id: int) -> Generator[Optional[_Request], Any, None]:
        """Ask a site whose representative was consumed for its next one."""
        if site_id in self._exhausted:
            return
        quaternion = yield from self._fetch_representative_script(
            self._site_by_id[site_id]
        )
        if quaternion is None:
            self._exhausted.add(site_id)
            return
        self.stats.record_round(tuples_in_round=1)
        self._admit(quaternion)

    def _expunge_script(self, stalled: bool) -> Generator[Optional[_Request], Any, bool]:
        """Run the policy's expunge to a fixpoint; True if anything was dropped.

        Each drop frees its site, which is immediately asked for the
        next candidate; the loop runs until every held representative
        is live or every queue is exhausted.
        """
        dropped = False
        while True:
            dead = self._expunge(stalled)
            if not dead:
                return dropped
            dropped = True
            # The freed sites pop in one wave; each refill is then
            # settled and admitted in turn, as if popped one by one.
            yield from self._fan_out_pops_script(
                [self._site_by_id[s] for s in dead if s not in self._exhausted]
            )
            for site_id in dead:
                yield from self._refill_script(site_id)
