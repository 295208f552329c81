"""Capped exponential backoff with deterministic jitter.

The coordinator runs every site RPC through :func:`attempt_loop` under
a :class:`RetryPolicy` — one loop that decides when to try again and
for how long to back off, but leaves calling and sleeping to whoever
drives it (the coordinator's blocking or awaiting pump, or
:func:`call_with_retry` for a plain thunk).  Two properties matter more
than sophistication:

* **Determinism** — the jitter is a pure function of ``(seed, site_id,
  attempt)``, so a chaos run's timing decisions replay exactly.
* **Non-raising** — exhausted retries are returned, not thrown; the
  coordinator escalates them to the site FSM instead of unwinding the
  query, which is the whole point of degraded mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Union

from .errors import RETRYABLE_FAULTS
from .schedule import _deterministic_unit

__all__ = ["RetryPolicy", "attempt_loop", "call_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a site DOWN.

    ``max_attempts``  — total attempts per RPC (1 = no retry).
    ``base_backoff``  — sleep before the first retry, in seconds.
    ``multiplier``    — exponential growth factor per retry.
    ``max_backoff``   — backoff cap.
    ``deadline``      — total backoff budget per RPC; when the next
                        sleep would exceed it, give up early.
    ``jitter``        — fraction of the backoff added as deterministic
                        jitter (0 disables it).
    ``seed``          — jitter seed; same seed, same delays.
    """

    max_attempts: int = 3
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    deadline: Optional[float] = None
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff times must be non-negative")

    def backoff(self, attempt: int, site_id: int = 0) -> float:
        """Sleep before retry number ``attempt`` (0-based), jitter included."""
        base = min(self.max_backoff, self.base_backoff * self.multiplier**attempt)
        if self.jitter <= 0.0:
            return base
        fraction = _deterministic_unit(self.seed, site_id, attempt + 1)
        return base * (1.0 + self.jitter * fraction)


def attempt_loop(
    call: Callable[[], Any],
    policy: RetryPolicy,
    site_id: int = 0,
    on_retry: Optional[Callable[[int, float, Exception], None]] = None,
    failed: Optional[Exception] = None,
) -> Generator[Union[Callable[[], Any], float], Any, Tuple[Any, Optional[Exception]]]:
    """The retry loop, *sans-io*: decides, never calls and never sleeps.

    Yields ``call`` back each time an attempt is due — the driver
    invokes it once and sends ``(value, None)``, or ``(None, fault)``
    for a :data:`RETRYABLE_FAULTS` member — and a ``float`` each time a
    backoff of that many seconds is due.  Returns ``(value, None)`` or
    ``(None, last_fault)``.  Blocking and event-loop drivers share this
    one loop, so both see the same attempts and the same deterministic
    :meth:`RetryPolicy.backoff` delays.  ``on_retry(attempt, delay,
    exc)`` fires before each backoff.  ``failed`` is the fault of a first
    attempt the caller made itself: the loop goes on as if it had.
    """
    budget = policy.deadline
    spent = 0.0
    last = failed
    for attempt in range(policy.max_attempts):
        if attempt or last is None:
            value, last = yield call
            if last is None:
                return value, None
        if attempt + 1 >= policy.max_attempts:
            break
        delay = policy.backoff(attempt, site_id)
        if budget is not None and spent + delay > budget:
            break
        spent += delay
        if on_retry is not None:
            on_retry(attempt, delay, last)
        yield delay
    return None, last


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    site_id: int = 0,
    sleep: Optional[Callable[[float], None]] = time.sleep,
    on_retry: Optional[Callable[[int, float, Exception], None]] = None,
) -> Tuple[Any, Optional[Exception]]:
    """Run ``fn`` under ``policy``; returns ``(value, None)`` or ``(None, err)``.

    The blocking driver of :func:`attempt_loop`.  Only transport faults
    (:data:`RETRYABLE_FAULTS`) are retried; anything else propagates —
    an application error is authoritative.  ``on_retry(attempt, delay,
    exc)`` fires before each backoff sleep.
    """
    loop = attempt_loop(fn, policy, site_id, on_retry)
    outcome: object = None
    while True:
        try:
            due = loop.send(outcome)
        except StopIteration as stop:
            return stop.value
        outcome = None
        if callable(due):
            try:
                outcome = fn(), None
            except RETRYABLE_FAULTS as exc:
                outcome = None, exc
        elif sleep is not None:
            sleep(due)
