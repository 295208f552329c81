"""SKY503 — asyncio-discipline: the serving layer never blocks its loop.

The serving layer (PR 6) multiplexes every concurrent query session —
and every async transport exchange — over **one** event loop.  That
design has two failure modes generic linters miss:

* a *blocking* call inside an ``async def`` (``time.sleep``, a raw
  ``socket`` dial, a bare ``select``) stalls the whole service: every
  in-flight session's latency inherits the stall, and the benchmark's
  percentiles silently measure the bug instead of the protocol;
* a *fire-and-forget* task — ``asyncio.create_task(...)`` /
  ``ensure_future(...)`` as a bare expression statement — drops the
  only strong reference to the task, so the event loop may garbage-
  collect it mid-flight and its exceptions vanish instead of failing
  the query that spawned it.

The rule is scoped to the async modules (``repro/serve/``,
``repro/net/aio.py``, and the worker-pool module
``repro/distributed/workers.py``): blocking calls elsewhere are legal
(the threaded transport in ``net/sockets.py`` *should* block), and the
repo-wide clock rule (SKY202) already polices ``time.time``.

The worker-pool module adds a third failure mode: a *blocking pool
join* — ``pool.shutdown(...)`` / ``pool.join(...)`` on an executor
receiver inside an ``async def`` — parks the loop until every queued
table build drains.  Teardown belongs in sync ``close()`` paths; async
code awaits ``asyncio.wrap_future`` handles instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Project, Rule, Severity, dotted_name

__all__ = ["AsyncioDisciplineRule"]

#: Dotted call forms that block the thread — and therefore the loop.
_BLOCKING = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "socket.socketpair",
        "select.select",
    }
)

#: Task-spawning calls whose return value must be kept.
_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: Executor methods that block until queued work drains.
_POOL_JOINS = frozenset({"shutdown", "join"})


class AsyncioDisciplineRule(Rule):
    id = "SKY503"
    name = "asyncio-discipline"
    severity = Severity.ERROR
    description = (
        "Event-loop discipline in the serving layer: no blocking "
        "sleep/socket calls inside `async def` (one stall freezes every "
        "in-flight session), no blocking pool joins/shutdowns in "
        "`async def` (teardown belongs in sync close paths), and no "
        "fire-and-forget create_task (a dropped reference loses the "
        "task and swallows its exceptions). The blocking and pool-join "
        "checks are the per-file fallback for SKY601, which follows "
        "calls through sync helpers."
    )
    superseded_by = "SKY601"

    def applies_to(self, module: ModuleContext) -> bool:
        return (
            "repro/serve/" in module.relpath
            or module.relpath.endswith("net/aio.py")
            or module.relpath.endswith("distributed/workers.py")
        )

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        # SKY601 reports every blocking/pool-join case below *plus* the
        # transitive ones this rule's single-function view cannot see;
        # under it, only the fire-and-forget check (which SKY601 does
        # not cover) remains ours.
        transitive = "SKY601" in project.superseding
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if transitive:
                if name.split(".")[-1] in _SPAWNERS and self._is_dropped(module, node):
                    yield module.finding(
                        self,
                        node,
                        f"fire-and-forget `{name}(...)`: nothing holds the "
                        "task, so the loop may garbage-collect it mid-flight "
                        "and its exceptions vanish — store the handle and "
                        "await (or cancel) it on close",
                    )
                continue
            if name in _BLOCKING and self._in_async_def(module, node):
                yield module.finding(
                    self,
                    node,
                    f"`{name}(...)` blocks the event loop; every other "
                    "in-flight session stalls with it — use the asyncio "
                    "equivalent (`await asyncio.sleep`, "
                    "`asyncio.open_connection`, …)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_JOINS
                and self._is_pool_receiver(node.func)
                and self._in_async_def(module, node)
            ):
                yield module.finding(
                    self,
                    node,
                    f"`{name}(...)` blocks the loop until every queued "
                    "worker job drains; tear pools down from a sync "
                    "`close()` (or hand the wait to a thread) — async "
                    "code should await `asyncio.wrap_future` handles",
                )
            elif name.split(".")[-1] in _SPAWNERS and self._is_dropped(module, node):
                yield module.finding(
                    self,
                    node,
                    f"fire-and-forget `{name}(...)`: nothing holds the "
                    "task, so the loop may garbage-collect it mid-flight "
                    "and its exceptions vanish — store the handle and "
                    "await (or cancel) it on close",
                )

    @staticmethod
    def _is_pool_receiver(func: ast.Attribute) -> bool:
        """True when the method's receiver looks like an executor."""
        receiver = dotted_name(func.value).lower()
        return "pool" in receiver or "executor" in receiver

    @staticmethod
    def _in_async_def(module: ModuleContext, node: ast.AST) -> bool:
        """True when the nearest enclosing function is ``async def``.

        A blocking call inside a *sync* helper nested in an async scope
        is out of reach here (resolving who calls it needs flow
        analysis); the pattern that bites is the direct one.
        """
        return isinstance(module.enclosing_function(node), ast.AsyncFunctionDef)

    @staticmethod
    def _is_dropped(module: ModuleContext, node: ast.Call) -> bool:
        """True when the spawned task's handle is discarded.

        Only a *bare expression statement* drops the reference —
        assignments, ``append(...)`` arguments, comprehension elements,
        returns, and awaits all keep (or consume) the handle.
        """
        parent = module.parent(node)
        return isinstance(parent, ast.Expr)
