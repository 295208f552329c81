"""Per-candidate coverage: who contributed Eq.-9 factors, who didn't.

The correctness anchor for degraded mode is Observation 1 / Eq. 9:
every foreign factor satisfies ``P_sky(t, D_x) ≤ 1``, so by Lemma 1 /
Corollary 1 the product over any *subset* of sites

    P_sky(t, D_i) × ∏_{x ∈ reachable} P_sky(t, D_x)  ≥  P_g-sky(t)

is a sound **upper bound** on the exact global skyline probability.  A
query that lost sites therefore still terminates with a *superset* of
the true answer, each tuple annotated with its bound and the sites
that contributed — and the bound tightens monotonically as recovered
sites are re-probed.

:class:`CoverageTracker` keeps those books per broadcast candidate;
:class:`CoverageReport` is the read-only summary surfaced on
:class:`~repro.distributed.runner.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # typing only — fault must not import core at runtime
    from ..core.tuples import UncertainTuple

__all__ = ["TupleCoverage", "CoverageReport", "CoverageTracker", "TightenHook"]

#: Callback fired when a re-probe tightens a *watched* candidate's
#: bound: ``hook(key, new_upper_bound)``.  The coordinator uses it to
#: re-score already-reported results and buffered top-k entries.
TightenHook = Callable[[int, float], None]


@dataclass
class TupleCoverage:
    """Coverage state for one broadcast candidate."""

    key: int
    origin: int
    tuple: "UncertainTuple"       # kept for re-probing
    upper_bound: float            # local probability × received exact factors
    contributing: Set[int] = field(default_factory=set)  # sites folded in (origin included)
    missing: Set[int] = field(default_factory=set)       # sites that owe a factor

    @property
    def exact(self) -> bool:
        """True when every site's factor is in the bound (Lemma 1)."""
        return not self.missing


@dataclass(frozen=True)
class CoverageReport:
    """The query-level coverage summary on a :class:`RunResult`.

    ``complete`` means the answer is exact — every reported probability
    is the Lemma-1 product over *all* sites.  Otherwise ``degraded``
    maps each affected tuple key to its ``(upper_bound,
    contributing_sites)`` annotation and ``down_sites`` lists the
    unreachable participants at termination.

    ``buffered`` lists the keys of top-k entries that were still held
    *inexact* in a :class:`~repro.distributed.topk.TopKBuffer`
    when the query ended: qualified under their Corollary-1 bound but
    never provably orderable, so never emitted.  Each such key also
    appears in ``degraded`` with its ``(upper_bound,
    contributing_sites)`` annotation.
    """

    complete: bool
    down_sites: Tuple[int, ...]
    candidates: int
    degraded: Dict[int, Tuple[float, Tuple[int, ...]]]
    transitions: Tuple[str, ...] = ()
    buffered: Tuple[int, ...] = ()

    def describe(self) -> str:
        if self.complete:
            return "coverage: complete (exact answer)"
        line = (
            f"coverage: DEGRADED — sites down {list(self.down_sites)}, "
            f"{len(self.degraded)} tuple(s) reported as Corollary-1 upper bounds"
        )
        if self.buffered:
            line += (
                f"; {len(self.buffered)} top-k candidate(s) held back "
                "unemitted (order unprovable without the down sites)"
            )
        return line


class CoverageTracker:
    """Tracks, per broadcast candidate, which sites' factors arrived."""

    def __init__(self, site_ids: Iterable[int]) -> None:
        self.site_ids = frozenset(site_ids)
        self._entries: Dict[int, TupleCoverage] = {}
        #: Keys whose bound is *live* downstream (reported results and
        #: buffered top-k entries): a re-probe that tightens one of
        #: these must notify the hooks so the owner can re-score or
        #: retract.  Unwatched candidates tighten silently — their
        #: bound has no consumer yet.
        self._watched: Set[int] = set()
        self._tighten_hooks: List[TightenHook] = []

    # ------------------------------------------------------------------
    # writes, driven by the coordinator's broadcast path
    # ------------------------------------------------------------------

    def open(
        self, key: int, origin: int, t: "UncertainTuple", local_probability: float
    ) -> TupleCoverage:
        """Register a candidate at broadcast time.

        The origin site's own contribution *is* the local probability,
        so it starts in ``contributing``; every other site starts in
        ``missing`` and moves over as its reply arrives.
        """
        cov = TupleCoverage(
            key=key,
            origin=origin,
            tuple=t,
            upper_bound=local_probability,
            contributing={origin},
            missing=set(self.site_ids - {origin}),
        )
        self._entries[key] = cov
        return cov

    def contribute(self, key: int, site_id: int, factor: float) -> float:
        """Fold one site's exact factor into the bound; returns the new bound.

        When the key is watched (see :meth:`watch`) every registered
        tighten hook is invoked with the new bound — this is the
        per-candidate re-probe path reintegration rides to re-score
        reported results and buffered top-k entries.
        """
        cov = self._entries[key]
        if site_id in cov.missing:
            cov.missing.discard(site_id)
            cov.contributing.add(site_id)
            cov.upper_bound *= factor
            if key in self._watched:
                for hook in self._tighten_hooks:
                    hook(key, cov.upper_bound)
        return cov.upper_bound

    def watch(self, key: int) -> None:
        """Mark a candidate as consumed downstream (reported/buffered).

        From now on a factor that arrives for ``key`` — in practice
        only via a recovered site's re-probe, since every reachable
        site already answered before the candidate was consumed —
        triggers the tighten hooks.
        """
        self._watched.add(key)

    def add_tighten_hook(self, hook: TightenHook) -> None:
        """Register a callback for re-probed bounds of watched keys."""
        self._tighten_hooks.append(hook)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: int) -> Optional[TupleCoverage]:
        return self._entries.get(key)

    def entries(self) -> List[TupleCoverage]:
        return list(self._entries.values())

    def missing_from(self, site_id: int) -> List[TupleCoverage]:
        """Candidates still owed a factor by ``site_id`` (the re-probe list)."""
        return [cov for cov in self._entries.values() if site_id in cov.missing]

    def report(
        self,
        down_sites: Iterable[int],
        result_keys: Optional[Iterable[int]] = None,
        transitions: Iterable[str] = (),
        buffered_keys: Iterable[int] = (),
    ) -> CoverageReport:
        """Build the query-level summary.

        With ``result_keys`` the per-tuple annotations are restricted
        to tuples actually in the answer (dropped candidates keep no
        obligation: their bound already proved them unqualified) plus
        ``buffered_keys`` — top-k entries the coordinator held back
        unemitted at termination, which must still be disclosed with
        their Corollary-1 bounds.
        """
        buffered = set(buffered_keys)
        keys = None if result_keys is None else set(result_keys) | buffered
        degraded = {
            key: (cov.upper_bound, tuple(sorted(cov.contributing)))
            for key, cov in self._entries.items()
            if not cov.exact and (keys is None or key in keys)
        }
        down = tuple(sorted(set(down_sites)))
        return CoverageReport(
            complete=not degraded and not down,
            down_sites=down,
            candidates=len(self._entries),
            degraded=degraded,
            transitions=tuple(transitions),
            buffered=tuple(sorted(buffered)),
        )
