"""The async multi-query serving layer.

One :class:`SkylineService` turns the repo's single-query protocol
stack into a server: many concurrent progressive skyline queries
multiplexed over shared standing sites on one asyncio event loop, with
admission control, per-tenant bandwidth budgets, and amortized
``prepare``/replica provisioning.  See ``docs/serving.md`` for the
architecture and ``perf/README.md`` for the workloads that measure it.

* :mod:`~repro.serve.sites` — shared partitions (:class:`SharedSiteHost`)
  and pre-provisioned replicas (:class:`StandingReplicaBook`).
* :mod:`~repro.serve.session` — per-query state (:class:`QuerySpec`,
  :class:`QuerySession`).
* :mod:`~repro.serve.subscription` — long-lived standing-query sessions
  (:class:`SubscriptionSession`) fed by the stream plane.
* :mod:`~repro.serve.admission` — concurrency caps and tenant budgets.
* :mod:`~repro.serve.service` — the scheduler tying it together.
"""

from .admission import AdmissionPolicy, AdmissionRejected, TenantLedger
from .service import SkylineService
from .session import QuerySession, QuerySpec, SessionState
from .sites import SharedSiteHost, StandingReplicaBook
from .subscription import SubscriptionSession, SubscriptionState

__all__ = [
    "AdmissionPolicy",
    "AdmissionRejected",
    "TenantLedger",
    "SkylineService",
    "QuerySession",
    "QuerySpec",
    "SessionState",
    "SharedSiteHost",
    "StandingReplicaBook",
    "SubscriptionSession",
    "SubscriptionState",
]
