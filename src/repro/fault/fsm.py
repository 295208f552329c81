"""The per-site lifecycle state machine the coordinator tracks.

Each participant endpoint has exactly one :class:`SiteLifecycle` at the
coordinator, moving through

::

               retry failed            retries exhausted
        UP ───────────────▶ SUSPECT ───────────────────▶ DOWN
        ▲                      │                           │
        │   retry succeeded    │            liveness probe │
        ├──────────────────────┘            answered       ▼
        │                                              RECOVERING
        └──────────────────────────────────────────────────┘
                      reintegration complete
                 (reintegration failure → DOWN)

The FSM is bookkeeping, not policy: the retry layer decides *when* to
give up, the coordinator decides *what* a DOWN site means for the
answer (see :mod:`~repro.fault.coverage`).  Every transition is
recorded with its reason, so a chaos run can be audited after the
fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

__all__ = ["SiteState", "Transition", "SiteLifecycle", "ClusterHealth"]


class SiteState(enum.Enum):
    """Where a site currently stands in the coordinator's eyes."""

    UP = "up"                  # answering normally
    SUSPECT = "suspect"        # at least one failed attempt this RPC
    DOWN = "down"              # retries exhausted; excluded from rounds
    RECOVERING = "recovering"  # answered a liveness probe; being reintegrated


_ALLOWED: Dict[SiteState, frozenset] = {
    SiteState.UP: frozenset({SiteState.SUSPECT, SiteState.DOWN}),
    SiteState.SUSPECT: frozenset({SiteState.UP, SiteState.DOWN}),
    SiteState.DOWN: frozenset({SiteState.RECOVERING}),
    SiteState.RECOVERING: frozenset({SiteState.UP, SiteState.DOWN}),
}


@dataclass(frozen=True)
class Transition:
    """One recorded state change."""

    site_id: int
    old: SiteState
    new: SiteState
    reason: str


class SiteLifecycle:
    """The FSM instance for one site."""

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id
        self.state = SiteState.UP
        self.history: List[Transition] = []
        self.consecutive_failures = 0

    def to(self, new: SiteState, reason: str = "") -> None:
        """Transition to ``new``; a no-op when already there."""
        if new is self.state:
            return
        if new not in _ALLOWED[self.state]:
            raise ValueError(
                f"site {self.site_id}: illegal transition "
                f"{self.state.value} -> {new.value} ({reason or 'no reason'})"
            )
        self.history.append(Transition(self.site_id, self.state, new, reason))
        self.state = new
        if new is SiteState.UP:
            self.consecutive_failures = 0

    @property
    def is_up(self) -> bool:
        return self.state is SiteState.UP

    @property
    def is_down(self) -> bool:
        return self.state is SiteState.DOWN

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is SiteState.UP:
            self.to(SiteState.SUSPECT, "rpc attempt failed")


class ClusterHealth:
    """All site lifecycles, plus the aggregate views the coordinator uses."""

    def __init__(self, site_ids: Iterable[int]) -> None:
        self._lifecycles: Dict[int, SiteLifecycle] = {
            site_id: SiteLifecycle(site_id) for site_id in site_ids
        }
        #: Sites not UP — transitions go through this class, never straight
        #: to a lifecycle — all a healthy cluster's per-RPC check reads.
        self.unhealthy: Set[int] = set()

    def lifecycle(self, site_id: int) -> SiteLifecycle:
        return self._lifecycles[site_id]

    def is_down(self, site_id: int) -> bool:
        return self._lifecycles[site_id].is_down

    @property
    def any_down(self) -> bool:
        """True while any site is not UP (a SUSPECT one is mid-RPC)."""
        return bool(self.unhealthy)

    def down_sites(self) -> List[int]:
        return sorted(
            site_id for site_id, lc in self._lifecycles.items() if lc.is_down
        )

    def up_sites(self) -> List[int]:
        return sorted(self._lifecycles.keys() - self.unhealthy)

    def record_failure(self, site_id: int) -> None:
        """One failed RPC attempt: an UP site turns SUSPECT."""
        self._lifecycles[site_id].record_failure()
        self.unhealthy.add(site_id)

    def mark_down(self, site_id: int, reason: str = "") -> None:
        lc = self._lifecycles[site_id]
        if not lc.is_down:
            lc.to(SiteState.DOWN, reason)
            self.unhealthy.add(site_id)

    def mark_recovering(self, site_id: int, reason: str = "") -> None:
        self._lifecycles[site_id].to(SiteState.RECOVERING, reason)

    def mark_up(self, site_id: int, reason: str = "") -> None:
        self._lifecycles[site_id].to(SiteState.UP, reason)
        self.unhealthy.discard(site_id)

    def transitions(self) -> List[Transition]:
        """Every recorded transition, in per-site order."""
        out: List[Transition] = []
        for site_id in sorted(self._lifecycles):
            out.extend(self._lifecycles[site_id].history)
        return out
