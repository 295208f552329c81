"""SKY503 — asyncio-discipline: no fire-and-forget tasks in async modules.

The serving layer (PR 6) multiplexes every concurrent query session —
and every async transport exchange — over **one** event loop.  A
*fire-and-forget* task — ``asyncio.create_task(...)`` /
``ensure_future(...)`` as a bare expression statement — drops the only
strong reference to the task, so the event loop may garbage-collect it
mid-flight and its exceptions vanish instead of failing the query that
spawned it.

The rule is scoped to the async modules (``repro/serve/`` and
``repro/net/aio.py``).  Blocking calls and pool joins
reachable from an ``async def`` are SKY601's, which follows them
through any number of sync helpers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = ["AsyncioDisciplineRule"]

#: Task-spawning calls whose return value must be kept.
_SPAWNERS = frozenset({"create_task", "ensure_future"})


class AsyncioDisciplineRule(Rule):
    id = "SKY503"
    name = "asyncio-discipline"
    severity = Severity.ERROR
    description = (
        "Event-loop discipline in the serving layer: no fire-and-forget "
        "create_task/ensure_future (a dropped reference loses the task "
        "and swallows its exceptions). Blocking calls reachable from "
        "`async def` are SKY601's."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return "repro/serve/" in module.relpath or module.relpath.endswith("net/aio.py")

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name.split(".")[-1] in _SPAWNERS and self._is_dropped(module, node):
                yield module.finding(
                    self,
                    node,
                    f"fire-and-forget `{name}(...)`: nothing holds the "
                    "task, so the loop may garbage-collect it mid-flight "
                    "and its exceptions vanish — store the handle and "
                    "await (or cancel) it on close",
                )

    @staticmethod
    def _is_dropped(module: ModuleContext, node: ast.Call) -> bool:
        """True when the spawned task's handle is discarded.

        Only a *bare expression statement* drops the reference —
        assignments, ``append(...)`` arguments, comprehension elements,
        returns, and awaits all keep (or consume) the handle.
        """
        return isinstance(module.parent(node), ast.Expr)
