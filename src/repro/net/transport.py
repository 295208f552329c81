"""The coordinator↔site endpoint contract and the one endpoint wrapper.

The coordinator drives sites through a narrow RPC surface —
:class:`SiteEndpoint` — with one method per protocol message.  The real
implementations are :class:`~repro.distributed.site.LocalSite`
(in-process, the default for experiments: bandwidth accounting is exact
regardless of transport because the coordinator records protocol
messages itself), and the TCP client
:class:`~repro.net.aio.AsyncRemoteSiteProxy`.

Everything else that looks like an endpoint is an
:class:`EndpointInterceptor` doing one thing around each call: inject a
fault (:class:`~repro.fault.injection.FaultyEndpoint`), journal it
(:class:`RecordingEndpoint`, for tests asserting protocol behaviour,
e.g. that feedback is never delivered to its origin site;
:class:`~repro.net.trace.ProtocolTracer` for persistent traces), or
yield to the event loop (:class:`~repro.net.aio.AsyncLocalEndpoint`).
"""

from __future__ import annotations

import functools
import inspect
import types
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..core.tuples import UncertainTuple
from .message import Quaternion

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import BatchProbeReply, ProbeReply

__all__ = [
    "SiteEndpoint",
    "SURFACE",
    "EndpointInterceptor",
    "RecordingEndpoint",
    "CallRecord",
]


@runtime_checkable
class SiteEndpoint(Protocol):
    """What the coordinator requires of a participant.

    An endpoint answers either directly or with an awaitable of the
    declared result (the asyncio proxy, any interceptor over one):
    ``Coordinator.asteps`` awaits whatever is awaitable, so one
    coordinator can mix both kinds.  The sync drivers need direct
    answers.
    """

    site_id: int

    def prepare(self, threshold: float) -> int:
        """Local computing phase; returns |SKY(D_i)|."""

    def pop_representative(self) -> Optional[Quaternion]:
        """To-Server phase; None once exhausted."""

    def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        """Server-Delivery + Local-Pruning; returns a ProbeReply."""

    def probe_and_prune_batch(self, ts: Sequence[UncertainTuple]) -> "BatchProbeReply":
        """Batched Server-Delivery: one factor per tuple, in order."""

    def queue_size(self) -> int:
        """Remaining local candidates (control information)."""


#: The methods an interceptor stands in front of: exactly the protocol
#: messages :class:`SiteEndpoint` declares, in declaration order.
SURFACE: Tuple[str, ...] = tuple(
    name
    for name, member in vars(SiteEndpoint).items()
    if callable(member) and not name.startswith("_")
)


#: Types :func:`inspect.isawaitable` rejected, so a reply of one is plain
#: without the ABC walk: hot paths ask :func:`is_awaitable` only on a miss.
PLAIN_REPLIES: Set[type] = set()


def is_awaitable(value: Any) -> bool:
    """``inspect.isawaitable(value)``, remembering the types that are not
    — but no generator's: its code's flags decide, not its type."""
    if inspect.isawaitable(value):
        return True
    if not isinstance(value, types.GeneratorType):
        PLAIN_REPLIES.add(type(value))
    return False


class EndpointInterceptor:
    """Forward the :data:`SURFACE` to ``inner``, with a hook on each side.

    The surface is bound once, at construction — an ``inner`` missing
    any of it is not an endpoint and raises ``AttributeError`` — and
    everything outside it (``ship_all``, update hooks, ``pruned_total``,
    …) passes through untouched.  A call stays a plain call until
    :meth:`before` or the inner endpoint hands back an awaitable; from
    there on it is a coroutine, so :meth:`after` sees the reply over
    sync and awaitable endpoints alike, never a coroutine object.
    """

    def __init__(self, inner: SiteEndpoint) -> None:
        self.inner = inner
        self.site_id = inner.site_id
        for method in SURFACE:
            target = getattr(inner, method)
            setattr(self, method, functools.partial(self._run, method, target))

    def before(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Runs ahead of the inner call: raise to cancel it, or return an
        awaitable to have it awaited first."""

    def after(self, method: str, args: Tuple[Any, ...], result: Any) -> None:
        """Runs behind the inner call, given its (awaited) result."""

    def _run(self, method: str, target: Callable[..., Any], *args: Any) -> Any:
        """A plain call, until something awaitable turns up."""
        gate = self.before(method, args)
        if gate is not None and is_awaitable(gate):
            return self._arun(method, target, args, gate)
        result = target(*args)
        if type(result) in PLAIN_REPLIES or not is_awaitable(result):
            self.after(method, args, result)
            return result
        return self._arun(method, None, args, result)

    async def _arun(
        self, method: str, target: Optional[Callable[..., Any]], args: Tuple[Any, ...], pending: Any
    ) -> Any:
        """Finishes a call `_run` found awaitable: ``pending`` is what
        :meth:`before` handed back, with the inner call (``target``)
        still due, or the inner call's own awaitable (``target=None``)."""
        result = await pending
        if target is not None:
            result = target(*args)
            if is_awaitable(result):
                result = await result
        self.after(method, args, result)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


@dataclass(frozen=True)
class CallRecord:
    """One observed RPC."""

    site_id: int
    method: str
    args: Tuple[Any, ...]
    result: Any


class RecordingEndpoint(EndpointInterceptor):
    """Transparent endpoint decorator that journals every call."""

    def __init__(self, inner: SiteEndpoint, log: Optional[List[CallRecord]] = None) -> None:
        super().__init__(inner)
        self.log: List[CallRecord] = log if log is not None else []

    def after(self, method: str, args: Tuple[Any, ...], result: Any) -> None:
        # A batch is journalled as a tuple: a snapshot the caller's
        # later edits to its list cannot reach.
        args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
        self.log.append(CallRecord(self.site_id, method, args, result))
