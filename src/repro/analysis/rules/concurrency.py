"""SKY501 — process-shared-state: ``self`` writes inside process-pool callables.

The table builds of :mod:`repro.distributed.workers` run in *process*
pools.  A ``self`` attribute written inside a callable submitted to a
``ProcessPoolExecutor`` does not race — it mutates a **pickled copy**
in the child and is silently discarded, and no lock helps, because
locks do not cross process boundaries either.

The heuristic:

1. Find process-pool dispatches — ``X.map(fn, …)`` / ``X.submit(fn, …)``
   where ``X``'s dotted form mentions ``pool`` or ``executor`` *and*
   either mentions ``process`` or is a name bound to
   ``ProcessPoolExecutor(...)``.
2. Resolve ``fn`` to a ``self`` method or a local ``lambda``/``def`` in
   the same scope.
3. Collect attribute writes in its body, following ``self.method()``
   calls transitively through the same class (visited-set bounded).
4. Report every one, locked or not: state must cross a process
   boundary via explicit serialization — ship arrays in, return a
   payload out — never through shared mutation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = ["ProcessSharedStateRule"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _attribute_target(node: ast.AST) -> Optional[str]:
    """Dotted form of a ``self``-rooted attribute write target."""
    if isinstance(node, ast.Attribute):
        name = dotted_name(node)
        if name.startswith("self."):
            return name
    if isinstance(node, ast.Subscript):
        return _attribute_target(node.value)
    return None


class ProcessSharedStateRule(Rule):
    id = "SKY501"
    name = "process-shared-state"
    severity = Severity.ERROR
    description = (
        "self attribute written from a process-pool callable: the worker "
        "mutates a pickled copy and the write is silently lost — locks "
        "do not cross process boundaries, so pass state in as arguments "
        "and return a serialized payload."
    )

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        aliases = self._process_pool_aliases(module)
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(module, cls, aliases)

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef, aliases: Set[str]
    ) -> Iterator[Finding]:
        methods: Dict[str, _FunctionNode] = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        writes: List[Tuple[ast.AST, str]] = []
        visited: Set[str] = set()
        for fn in self._process_callables(module, cls, methods, aliases):
            self._collect_writes(fn, methods, visited, writes)
        for node, target in writes:
            yield module.finding(
                self,
                node,
                f"`{target}` is written inside a process-pool callable: the "
                "worker mutates a pickled copy and the write is silently "
                "lost (locks do not cross processes) — pass state in as "
                "arguments and return a serialized payload instead",
            )

    @staticmethod
    def _process_pool_aliases(module: ModuleContext) -> Set[str]:
        """Names bound to ``ProcessPoolExecutor(...)`` in this module.

        Covers ``pool = ProcessPoolExecutor()``, ``self._pool =
        ProcessPoolExecutor()`` and ``with ProcessPoolExecutor() as p:``
        — so a dispatch receiver that does not say "process" is still
        classified by what it was constructed from.
        """
        aliases: Set[str] = set()

        def _ctor(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Call) and dotted_name(expr.func).endswith(
                "ProcessPoolExecutor"
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _ctor(node.value):
                for target in node.targets:
                    aliases.add(dotted_name(target).lower())
            elif isinstance(node, ast.With):
                for item in node.items:
                    if _ctor(item.context_expr) and item.optional_vars is not None:
                        aliases.add(dotted_name(item.optional_vars).lower())
        return aliases

    def _process_callables(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        methods: Dict[str, _FunctionNode],
        aliases: Set[str],
    ) -> List[_FunctionNode]:
        """The callables handed to a process pool's ``map``/``submit``."""
        out: List[_FunctionNode] = []
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in ("map", "submit"):
                continue
            receiver = dotted_name(func.value).lower()
            if "pool" not in receiver and "executor" not in receiver:
                continue
            if "process" not in receiver and receiver not in aliases:
                continue
            resolved = self._resolve_callable(module, node.args[0], methods)
            if resolved is not None:
                out.append(resolved)
        return out

    @staticmethod
    def _resolve_callable(
        module: ModuleContext,
        arg: ast.expr,
        methods: Dict[str, _FunctionNode],
    ) -> Optional[_FunctionNode]:
        if isinstance(arg, ast.Lambda):
            return arg
        if isinstance(arg, ast.Attribute):
            name = dotted_name(arg)
            if name.startswith("self."):
                return methods.get(name[len("self."):])
            return None
        if not isinstance(arg, ast.Name):
            return None
        if arg.id in methods:
            return methods[arg.id]
        # A local `worker = lambda …` / `def worker(…)` in the dispatching scope.
        scope = module.enclosing_function(arg)
        if scope is None:
            return None
        for node in ast.walk(scope):
            if isinstance(node, ast.FunctionDef) and node.name == arg.id:
                return node
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == arg.id:
                        return node.value
        return None

    def _collect_writes(
        self,
        fn: _FunctionNode,
        methods: Dict[str, _FunctionNode],
        visited: Set[str],
        out: List[Tuple[ast.AST, str]],
    ) -> None:
        for node in ast.walk(fn):
            targets: List[ast.expr] = []
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = list(node.targets)
            for tgt in targets:
                target = _attribute_target(tgt)
                if target:
                    out.append((node, target))
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name.startswith("self."):
                continue
            method_name = name[len("self."):]
            if "." in method_name or method_name in visited:
                continue
            callee = methods.get(method_name)
            if callee is None:
                continue
            visited.add(method_name)
            self._collect_writes(callee, methods, visited, out)
