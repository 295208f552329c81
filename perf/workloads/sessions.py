"""What the two ``SkylineService`` workloads share: the closed-loop
clients and the reading of a finished ``QuerySession``."""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Awaitable, Callable, Deque, Dict, Sequence, Tuple

from harness import OpSample, answer_digest

from repro.serve.session import QuerySession, SessionState


def session_digest(answer, stats) -> str:
    """Answer (keys, probability bits, order) plus the bandwidth books."""
    members = answer_digest((m.key, m.probability) for m in answer)
    return f"{members}/{stats.tuples_transmitted}/{stats.messages}"


def session_sample(session: QuerySession, start: float) -> OpSample:
    """One finished session on the generator's clock (``start`` = just
    before ``submit``), with the exact counts its books hold."""
    stats = session.coordinator.stats
    ok = session.state is SessionState.FINISHED and session.result is not None
    end = session.finished_at or time.perf_counter()
    started = session.started_at or end
    return OpSample(
        latency=end - start,
        first=(session.first_result_at or end) - start,
        tuples=stats.tuples_transmitted,
        messages=stats.messages,
        digest=session_digest(session.result.answer, stats) if ok else "failed",
        ok=ok,
        counts={
            "coordinator.iterations_per_op": session.result.iterations if ok else 0,
            "coordinator.rounds_per_op": stats.rounds,
            "serve.steps_per_op": session.steps_taken,
            "fault.retries_per_op": stats.rpc_retries,
            "fault.failures_per_op": stats.rpc_failures,
            "replica.failovers_per_op": stats.failovers,
        },
        timings={
            "serve.queue_wait_ms": started - session.submitted_at,
            "serve.run_ms": end - started,
        },
    )


async def waves(
    order: Sequence[int],
    clients: int,
    submit: Callable[[int], Awaitable[QuerySession]],
) -> Tuple[Dict[int, Tuple[QuerySession, float]], float]:
    """``clients`` coroutines take ``order`` a wave at a time: each sends
    one op, and all send their next once the whole wave is done.  Same
    return value as :func:`closed_loop`.

    Every op of a wave shares the event-loop thread with the same
    siblings for all but its first milliseconds, so its latency does not
    hang on what the other clients happened to be running.  Within a wave
    the clients send one at a time, each once its predecessor's op has
    reported a result: sent in one burst, the k-th op's time to its first
    result would be k session set-ups, a ladder with the median on a rung.
    """
    finished: Dict[int, Tuple[QuerySession, float]] = {}

    async def client(op: int, may_send: asyncio.Event, sent: asyncio.Event) -> None:
        await may_send.wait()
        start = time.perf_counter()
        session = await submit(op)
        while not session.done:
            if session.first_result_at is not None:
                sent.set()
            await asyncio.sleep(0)
        sent.set()
        finished[op] = (session, start)

    start = time.perf_counter()
    for first in range(0, len(order), clients):
        wave = order[first : first + clients]
        turns = [asyncio.Event() for _ in range(len(wave) + 1)]
        turns[0].set()
        await asyncio.gather(*(client(op, turns[k], turns[k + 1]) for k, op in enumerate(wave)))
    return finished, time.perf_counter() - start


async def closed_loop(
    order: Sequence[int],
    clients: int,
    submit: Callable[[int], Awaitable[QuerySession]],
) -> Tuple[Dict[int, Tuple[QuerySession, float]], float]:
    """``clients`` coroutines drain ``order``, each sending its next op
    when its previous one is done.  Returns every op's finished session
    with its start time, and the round's makespan.

    The clients join one at a time, each once its predecessor's first
    op has reported a result.  Started together, the first wave's ops
    would all wait on one another's local-computing phase — a second
    mode in the time-to-first-result that a steady closed loop does not
    have, and one a median over a short op list lands on the edge of.
    """
    work: Deque[int] = deque(order)
    finished: Dict[int, Tuple[QuerySession, float]] = {}
    joined = [asyncio.Event() for _ in range(clients)]

    async def client(k: int) -> None:
        if k:
            await joined[k - 1].wait()
        while work:
            op = work.popleft()
            start = time.perf_counter()
            session = await submit(op)
            while not session.done:
                if session.first_result_at is not None:
                    joined[k].set()
                await asyncio.sleep(0)
            finished[op] = (session, start)
        joined[k].set()

    start = time.perf_counter()
    await asyncio.gather(*(client(k) for k in range(clients)))
    return finished, time.perf_counter() - start
