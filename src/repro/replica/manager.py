"""The :class:`ReplicaManager`: provisioning, write-forwarding, anti-entropy.

One manager owns every replica in the cluster.  It provisions a
:class:`~repro.distributed.site.LocalSite` copy of each partition on
its buddy hosts (placement per :mod:`~repro.replica.placement`), keeps
the copies consistent with §5.4 maintenance through write-forwarding
(:meth:`~ReplicaManager.forward_insert` / :meth:`~ReplicaManager.forward_delete`)
plus a periodic anti-entropy digest exchange
(:meth:`~ReplicaManager.anti_entropy_round`), and hands the coordinator
a drop-in replacement endpoint (:meth:`~ReplicaManager.replica_for`)
when a primary goes DOWN.

Accounting: every replica-path message is billed to the bound
:class:`~repro.net.stats.NetworkStats` (skylint SKY602) — provisioning
and repairs as tuple-bearing ``REPLICA_SYNC``, digest exchanges as
zero-tuple ``DIGEST``.  The manager starts with its own standing book
(provisioning is a data-placement cost amortised across queries, not a
per-query one); a coordinator re-points billing at its per-query book
via :meth:`~ReplicaManager.bind_stats`, so failover-time sync traffic
lands on the query it serves.

Failure coupling is intentionally not modelled: a replica is an
in-process ``LocalSite`` unaffected by the fault schedule gating its
logical primary.  The model is "the buddy host survives the primary's
crash" — the assumption the related distributed-skyline literature
makes when treating site data as recoverable from peers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..distributed.site import LocalSite, SiteConfig
from ..net.message import MessageKind
from ..net.stats import NetworkStats
from ..net.transport import SiteEndpoint
from .placement import assign_buddies

__all__ = ["ReplicaManager"]


class ReplicaManager:
    """Owns the replica set of one cluster and its sync protocol."""

    def __init__(
        self,
        sites: Sequence[SiteEndpoint],
        replication_factor: int,
        preference: Optional[Preference] = None,
        site_config: Optional[SiteConfig] = None,
        seed: int = 0,
    ) -> None:
        self._primaries: Dict[int, SiteEndpoint] = {s.site_id: s for s in sites}
        self.replication_factor = replication_factor
        self.preference = preference
        self.site_config = site_config
        self.placement = assign_buddies(
            self._primaries, replication_factor, seed=seed
        )
        #: logical site id → [(buddy host id, replica LocalSite)]
        self._replicas: Dict[int, List[Tuple[int, LocalSite]]] = {}
        #: The active billing book.  Starts as the manager's standing
        #: ledger; a coordinator swaps in its per-query stats via
        #: :meth:`bind_stats`.
        self.stats = NetworkStats()
        self._provisioned = False

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def bind_stats(self, stats: NetworkStats) -> None:
        """Re-point replica-traffic billing (e.g. at a query's books)."""
        self.stats = stats

    @staticmethod
    def _replica_name(site_id: int, host: int) -> str:
        return f"replica-{site_id}@site-{host}"

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------

    @property
    def has_replicas(self) -> bool:
        return self.replication_factor > 1

    def ensure_provisioned(self) -> None:
        """Copy every partition onto its buddies; idempotent.

        Provisioning rides ``ship_all``: the primary surrenders its
        partition once per buddy, billed as one ``REPLICA_SYNC``
        bearing ``|D_i|`` tuples — the §3.2 cost of placing a copy.
        """
        if self._provisioned or not self.has_replicas:
            self._provisioned = True
            return
        for sid in sorted(self._primaries):
            primary = self._primaries[sid]
            data = list(primary.ship_all())
            pairs: List[Tuple[int, LocalSite]] = []
            for host in self.placement[sid]:
                self.stats.bill(
                    MessageKind.REPLICA_SYNC,
                    f"site-{sid}",
                    self._replica_name(sid, host),
                    tuples=len(data),
                )
                replica = LocalSite(
                    site_id=sid,
                    database=data,
                    preference=self.preference,
                    config=self.site_config,
                )
                pairs.append((host, replica))
            self._replicas[sid] = pairs
            self.stats.record_round(tuples_in_round=len(data) * len(pairs))
        self._provisioned = True

    def replica_for(self, site_id: int) -> Optional[LocalSite]:
        """The first buddy's replica of ``site_id``, if any.

        The replica is a full :class:`LocalSite` constructed with the
        primary's ``site_id``, so quaternions it surrenders carry the
        correct origin and the coordinator can swap it in untouched.
        Only the first buddy ever serves — one failover per logical
        site per query; the further copies of rf ≥ 3 are provisioned
        and write-forwarded but never handed out.
        """
        self.ensure_provisioned()
        pairs = self._replicas.get(site_id, [])
        return pairs[0][1] if pairs else None

    # ------------------------------------------------------------------
    # write-forwarding (§5.4 maintenance stays replica-consistent)
    # ------------------------------------------------------------------

    def forward_insert(self, site_id: int, t: UncertainTuple) -> None:
        """Apply one §5.4 insert to every replica of ``site_id``.

        One tuple-bearing ``REPLICA_SYNC`` per copy — the forwarded
        write is real wide-area traffic.  Application is convergent
        (upsert): lazy provisioning may have snapshotted the primary
        *after* the write it forwards, in which case the copy already
        holds the tuple and the message is a no-op on arrival.
        """
        self.ensure_provisioned()
        for host, replica in self._replicas.get(site_id, []):
            self.stats.bill(
                MessageKind.REPLICA_SYNC,
                f"site-{site_id}",
                self._replica_name(site_id, host),
                tuples=1,
            )
            if replica.database.get(t.key) == t:
                continue
            if t.key in replica.database:
                replica.delete_tuple(t.key)
            replica.insert_tuple(t)

    def forward_delete(self, site_id: int, key: int) -> None:
        """Apply one §5.4 delete to every replica of ``site_id``.

        Key-only, so zero tuples under the §3.2 metric — but still a
        billed ``REPLICA_SYNC`` message: a failover must never
        resurrect a deleted tuple.  Convergent like
        :meth:`forward_insert`: deleting an already-absent key is a
        no-op on arrival.
        """
        self.ensure_provisioned()
        for host, replica in self._replicas.get(site_id, []):
            self.stats.bill(
                MessageKind.REPLICA_SYNC,
                f"site-{site_id}",
                self._replica_name(site_id, host),
                tuples=0,
            )
            if key in replica.database:
                replica.delete_tuple(key)

    # ------------------------------------------------------------------
    # anti-entropy
    # ------------------------------------------------------------------

    def anti_entropy_round(self) -> int:
        """One digest exchange per (primary, replica) pair; repair drift.

        Only a mismatch triggers a tuple-bearing repair shipment (see
        :meth:`_sync`).  Returns the number of replicas repaired — zero
        on a cluster where every write was forwarded.
        """
        self.ensure_provisioned()
        repaired = 0
        for sid in sorted(self._replicas):
            for host, replica in self._replicas[sid]:
                repaired += self._sync(
                    self._primaries[sid], replica,
                    f"site-{sid}", self._replica_name(sid, host),
                )
        if self._replicas:
            self.stats.record_round()
        return repaired

    def resync_primary(self, site_id: int) -> bool:
        """Converge a recovered primary onto its serving replica's data.

        The failback prelude: before the coordinator re-targets the
        primary, its partition must match the copy that served in its
        absence (writes may have been forwarded while it was DOWN).
        Returns True when the primary had drifted and was repaired.
        """
        self.ensure_provisioned()
        pairs = self._replicas.get(site_id, [])
        if not pairs:
            return False
        host, replica = pairs[0]
        return self._sync(
            replica, self._primaries[site_id],
            self._replica_name(site_id, host), f"site-{site_id}",
        )

    def _sync(
        self,
        source: SiteEndpoint,
        target: SiteEndpoint,
        source_name: str,
        target_name: str,
    ) -> bool:
        """One digest exchange; :meth:`_repair` ``target`` on a mismatch.

        The partition fingerprints cross as two zero-tuple ``DIGEST``
        messages.  Returns True when a repair was shipped.
        """
        self.stats.bill(MessageKind.DIGEST, source_name, target_name)
        self.stats.bill(MessageKind.DIGEST, target_name, source_name)
        if source.partition_digest() == target.partition_digest():
            return False
        self._repair(source, target, source_name, target_name)
        return True

    def _repair(
        self,
        source: SiteEndpoint,
        target: SiteEndpoint,
        source_name: str,
        target_name: str,
    ) -> None:
        """Ship the diff that converges ``target`` onto ``source``.

        Deletions travel as keys (zero tuples); inserted or changed
        tuples bear their §3.2 cost in one ``REPLICA_SYNC``.
        """
        want = {t.key: t for t in source.ship_all()}
        have = {t.key: t for t in target.ship_all()}
        for key in sorted(set(have) - set(want)):
            target.delete_tuple(key)
        shipped = 0
        for key in sorted(want):
            t = want[key]
            old = have.get(key)
            if old == t:
                continue
            if old is not None:
                target.delete_tuple(key)
            target.insert_tuple(t)
            shipped += 1
        self.stats.bill(
            MessageKind.REPLICA_SYNC, source_name, target_name, tuples=shipped
        )
        self.stats.record_round(tuples_in_round=shipped)
