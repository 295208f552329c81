"""SKY401 — rpc-discipline: coordinator→site calls ride the fault funnel.

PR 1 made site failure a first-class protocol event: every
coordinator→site RPC flows through the script engine's funnel
(:meth:`ScriptEngine._lane`), which retries under the
:class:`RetryPolicy`, escalates exhausted retries to the lifecycle FSM,
and keeps the Corollary-1 coverage books honest.  Protocol scripts
reach it by *describing* the call — ``yield _Rpc(site, "method",
args)`` — never by making it.  A direct endpoint call from a
coordinator bypasses all of it — one transport fault unwinds the whole
query instead of degrading it.

The rule checks functions of classes that (transitively) subclass
``Coordinator`` inside ``distributed/``.  A site-endpoint call on a
non-``self`` receiver is legal only when it is

* inside a lambda/nested function passed as an argument to the retry
  loop (``attempt_loop(...)`` / ``call_with_retry(...)``), or
* inside a ``try`` whose handler catches ``RETRYABLE_FAULTS`` (a pump's
  single attempt, or a deliberately unretried single-shot probe).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name
from ..summaries import RPC_METHODS

__all__ = ["RpcDisciplineRule"]

#: Function names whose call arguments are the fault-aware path: a
#: thunk handed to the shared retry loop or its blocking driver.
_FUNNELS = ("attempt_loop", "call_with_retry")


def _is_rpc_call(node: ast.Call) -> Optional[str]:
    """The RPC method name if this call hits a site endpoint, else None."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in RPC_METHODS:
        return None
    receiver = dotted_name(func.value)
    if receiver == "self" or receiver.startswith("self."):
        return None
    return func.attr


class RpcDisciplineRule(Rule):
    id = "SKY401"
    name = "rpc-discipline"
    severity = Severity.ERROR
    description = (
        "Coordinator→site RPC outside the _Rpc/RetryPolicy funnel: a direct "
        "endpoint call turns one transport fault into a full-query failure "
        "instead of a Corollary-1 degraded answer."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return "distributed/" in module.relpath

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _is_rpc_call(node)
            if method is None:
                continue
            cls = module.enclosing_class(node)
            if cls is None or not program.inherits_from(cls.name, "Coordinator"):
                continue  # regions/maintainers have their own surfaces
            if self._funnelled(module, node):
                continue
            yield module.finding(
                self,
                node,
                f"`{dotted_name(node.func)}(...)` is a direct site RPC; describe "
                f'it as `yield _Rpc(site, "{method}", args)` from a protocol '
                "script so retries, FSM escalation, and coverage tracking apply",
            )

    def _funnelled(self, module: ModuleContext, node: ast.Call) -> bool:
        previous: ast.AST = node
        for anc in module.ancestors(node):
            if isinstance(anc, ast.Try) and previous in anc.body:
                if self._catches_retryable(anc):
                    return True
            if isinstance(anc, ast.Call) and previous is not anc:
                tail = dotted_name(anc.func).split(".")[-1]
                if tail in _FUNNELS and previous in anc.args:
                    return True
            previous = anc
        return False

    @staticmethod
    def _catches_retryable(node: ast.Try) -> bool:
        for handler in node.handlers:
            if handler.type is None:
                continue
            for sub in ast.walk(handler.type):
                if isinstance(sub, ast.Name) and sub.id == "RETRYABLE_FAULTS":
                    return True
                if isinstance(sub, ast.Attribute) and sub.attr == "RETRYABLE_FAULTS":
                    return True
        return False
