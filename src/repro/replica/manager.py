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
        """A live replica endpoint able to serve ``site_id``, if any.

        The replica is a full :class:`LocalSite` constructed with the
        primary's ``site_id``, so quaternions it surrenders carry the
        correct origin and the coordinator can swap it in untouched.
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

        Each pair costs two zero-tuple ``DIGEST`` messages (the
        partition fingerprints cross); only a mismatch triggers a
        tuple-bearing repair shipment.  Returns the number of replicas
        repaired — zero on a cluster where every write was forwarded.
        """
        self.ensure_provisioned()
        repaired = 0
        for sid in sorted(self._replicas):
            primary = self._primaries[sid]
            want = primary.partition_digest()
            for host, replica in self._replicas[sid]:
                name = self._replica_name(sid, host)
                self.stats.bill(MessageKind.DIGEST, f"site-{sid}", name)
                self.stats.bill(MessageKind.DIGEST, name, f"site-{sid}")
                if replica.partition_digest() == want:
                    continue
                self._repair(primary, replica, f"site-{sid}", name)
                repaired += 1
        if self._replicas:
            self.stats.record_round()
        return repaired

    def resync_primary(self, site_id: int) -> bool:
        """Converge a recovered primary onto its serving replica's data.

        The failback prelude: before the coordinator re-targets the
        primary, its partition must match the copy that served in its
        absence (writes may have been forwarded while it was DOWN).
        Digest exchange first; only a mismatch ships tuples.  Returns
        True when the partitions agree afterwards.
        """
        self.ensure_provisioned()
        pairs = self._replicas.get(site_id, [])
        if not pairs:
            return True
        host, replica = pairs[0]
        primary = self._primaries[site_id]
        pname = f"site-{site_id}"
        rname = self._replica_name(site_id, host)
        self.stats.bill(MessageKind.DIGEST, pname, rname)
        self.stats.bill(MessageKind.DIGEST, rname, pname)
        if primary.partition_digest() != replica.partition_digest():
            self._repair(replica, primary, rname, pname)
        return primary.partition_digest() == replica.partition_digest()

    def _repair(
        self,
        source: SiteEndpoint,
        target: SiteEndpoint,
        source_name: str,
        target_name: str,
    ) -> int:
        """Ship the diff that converges ``target`` onto ``source``.

        Deletions travel as keys (zero tuples); inserted or changed
        tuples bear their §3.2 cost in one ``REPLICA_SYNC``.  Returns
        the number of tuples shipped.
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
        return shipped
