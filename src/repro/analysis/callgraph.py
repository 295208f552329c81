"""Phase 2 of the whole-program analyzer: the project call graph.

Links the per-file :class:`~repro.analysis.summaries.ModuleSummary`
objects into a :class:`Program` — functions keyed by
``relpath::Qual.name``, call edges resolved from raw dotted callee text
— and defines :class:`ProgramRule`, the base class for the SKY6xx
interprocedural family.

Call resolution is deliberately conservative: an edge exists only when
the target is near-certain —

* ``self.m(...)`` / ``cls.m(...)`` → the method on the caller's class
  or a (name-resolved) base class;
* ``self.attr.m(...)`` → the method on the class ``attr`` was
  constructed or annotated as in ``__init__``;
* ``f(...)`` → a module-level function, an imported function, or an
  imported/local class constructor;
* ``alias.f(...)`` → a module-level function of an imported module;
* ``obj.m(...)`` on an untyped receiver → only when exactly **one**
  class in the whole program defines ``m`` and ``m`` is not an ambient
  name (``close``, ``get``, ``append`` …).

Unresolved calls simply have no edge — a missing edge can hide a
finding but never invent one.  Generator functions are a hard call
boundary: *calling* one executes nothing, so blocking-reachability
never propagates through them (a coordinator's ``_steps()`` protocol
script is the example: calling it only builds the script; the engine's
pump is what runs it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import Finding, Rule
from .summaries import (
    BillFact,
    BlockFact,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    RpcFact,
    Site,
)

__all__ = ["Program", "ProgramFunction", "ProgramRule"]


#: Method names too ubiquitous for unique-definer fallback resolution:
#: an edge guessed from one of these is more likely stdlib/duck-typed
#: than the single repo class that happens to define it.
_AMBIENT_METHODS = frozenset(
    {
        "append", "appendleft", "add", "get", "put", "pop", "popleft",
        "items", "keys", "values", "update", "extend", "remove", "sort",
        "split", "strip", "join", "read", "write", "open", "close",
        "run", "send", "recv", "submit", "map", "result", "done",
        "cancel", "shutdown", "acquire", "release", "wait", "notify",
        "notify_all", "set", "clear", "copy", "index", "count",
        "format", "encode", "decode", "flush", "to_dict", "from_dict",
        "info", "debug", "warning", "error", "exception", "name",
        "start", "stop", "reset", "register", "record",
    }
)


class ProgramFunction:
    """One function in the linked program."""

    def __init__(self, module: ModuleSummary, summary: FunctionSummary) -> None:
        self.module = module
        self.summary = summary
        self.key = f"{module.relpath}::{summary.qualname}"
        #: resolved call edges, with the raw callee text that produced them
        self.callees: List[Tuple["ProgramFunction", str, Site]] = []
        self.callers: List["ProgramFunction"] = []
        #: blocking facts synthesized by linking (sync-endpoint RPCs)
        self.linked_blocking: List[BlockFact] = []
        #: nested defs lexically inside this function
        self.children: List["ProgramFunction"] = []

    @property
    def is_async(self) -> bool:
        return self.summary.is_async

    @property
    def is_generator(self) -> bool:
        return self.summary.is_generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgramFunction {self.key}>"


class Program:
    """The linked whole-program view phase-2 rules run over."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.by_module_name: Dict[str, ModuleSummary] = {
            s.module_name: s for s in summaries
        }
        self.functions: Dict[str, ProgramFunction] = {}
        #: class name -> [(module, summary)] definitions
        self.classes: Dict[str, List[Tuple[ModuleSummary, ClassSummary]]] = {}
        self.class_bases: Dict[str, Set[str]] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        for module in summaries:
            for cls in module.classes.values():
                self.classes.setdefault(cls.name, []).append((module, cls))
                self.class_bases.setdefault(cls.name, set()).update(cls.bases)
            for fn in module.functions.values():
                pf = ProgramFunction(module, fn)
                self.functions[pf.key] = pf
        for pf in self.functions.values():
            if pf.summary.class_name is not None and pf.summary.parent is None:
                self._methods_by_name.setdefault(pf.summary.name, []).append(pf.key)
        self._link()

    # ------------------------------------------------------------------
    # linking
    # ------------------------------------------------------------------

    def _link(self) -> None:
        for pf in self.functions.values():
            # Implicit edge: defining a nested function. Conservative
            # and cheap — the coordinator invokes its nested thunks.
            if pf.summary.parent is not None:
                parent_key = f"{pf.module.relpath}::{pf.summary.parent}"
                parent = self.functions.get(parent_key)
                if parent is not None:
                    parent.children.append(pf)
                    parent.callees.append(
                        (
                            pf,
                            pf.summary.name,
                            Site(pf.summary.lineno, 1, pf.summary.qualname),
                        )
                    )
                    pf.callers.append(parent)
            for call in pf.summary.calls:
                target = self.resolve(pf, call.callee)
                if target is None:
                    continue
                if self._is_sync_endpoint_stub(target):
                    # A resolved call onto the *sync* SiteEndpoint
                    # protocol: network I/O with no await point.
                    pf.linked_blocking.append(
                        BlockFact(name=call.callee, kind="sync-rpc", site=call.site)
                    )
                    continue
                pf.callees.append((target, call.callee, call.site))
                target.callers.append(pf)

    @staticmethod
    def _is_sync_endpoint_stub(target: ProgramFunction) -> bool:
        return (
            target.summary.class_name == "SiteEndpoint"
            and target.module.relpath.endswith("net/transport.py")
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(self, caller: ProgramFunction, raw: str) -> Optional[ProgramFunction]:
        parts = raw.split(".")
        if parts[0] in ("self", "cls") and caller.summary.class_name is not None:
            if len(parts) == 2:
                return self.resolve_method(
                    caller.summary.class_name, parts[1], caller.module
                )
            if len(parts) == 3:
                attr_type = self._attr_type(caller.summary.class_name, parts[1])
                if attr_type is not None:
                    return self.resolve_method(attr_type, parts[2], caller.module)
            return None
        if len(parts) == 1:
            return self._resolve_bare(caller, parts[0])
        if len(parts) >= 2:
            resolved = self._resolve_imported(caller, parts)
            if resolved is not None:
                return resolved
        return self._resolve_unique_method(parts[-1])

    def _resolve_bare(self, caller: ProgramFunction, name: str) -> Optional[ProgramFunction]:
        local = self.functions.get(f"{caller.module.relpath}::{name}")
        if local is not None:
            return local
        if name in caller.module.classes:
            return self.resolve_method(name, "__init__", caller.module)
        target = caller.module.imports.get(name)
        if target is not None:
            mod_name, _, attr = target.rpartition(".")
            module = self.by_module_name.get(mod_name)
            if module is not None:
                fn = self.functions.get(f"{module.relpath}::{attr}")
                if fn is not None:
                    return fn
                if attr in module.classes:
                    return self.resolve_method(attr, "__init__", module)
        if name in self.classes and len(self.classes[name]) == 1:
            return self.resolve_method(name, "__init__", caller.module)
        return None

    def _resolve_imported(
        self, caller: ProgramFunction, parts: List[str]
    ) -> Optional[ProgramFunction]:
        target = caller.module.imports.get(parts[0])
        if target is None:
            return None
        module = self.by_module_name.get(target)
        if module is not None and len(parts) == 2:
            fn = self.functions.get(f"{module.relpath}::{parts[1]}")
            if fn is not None:
                return fn
            if parts[1] in module.classes:
                return self.resolve_method(parts[1], "__init__", module)
            return None
        # `from pkg import Class` used as `Class.method(...)`
        _, _, attr = target.rpartition(".")
        if attr in self.classes and len(parts) == 2:
            return self.resolve_method(attr, parts[1], caller.module)
        return None

    def _resolve_unique_method(self, method: str) -> Optional[ProgramFunction]:
        if method in _AMBIENT_METHODS:
            return None
        keys = self._methods_by_name.get(method, [])
        if len(keys) == 1:
            return self.functions[keys[0]]
        return None

    def resolve_method(
        self, class_name: str, method: str, prefer: Optional[ModuleSummary]
    ) -> Optional[ProgramFunction]:
        """Method lookup by class name, walking name-resolved bases."""
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            name = frontier.pop(0)
            if name in seen:
                continue
            seen.add(name)
            defs = self.classes.get(name, [])
            ordered = sorted(
                defs,
                key=lambda mc: (prefer is None or mc[0] is not prefer, mc[0].relpath),
            )
            for module, _cls in ordered:
                fn = self.functions.get(f"{module.relpath}::{name}.{method}")
                if fn is not None:
                    return fn
            frontier.extend(sorted(self.class_bases.get(name, ())))
        return None

    def _attr_type(self, class_name: str, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            name = frontier.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for _module, cls in self.classes.get(name, []):
                if attr in cls.attr_types:
                    return cls.attr_types[attr]
            frontier.extend(sorted(self.class_bases.get(name, ())))
        return None

    # ------------------------------------------------------------------
    # lexical aggregation (outermost-function attribution)
    # ------------------------------------------------------------------

    def toplevel(self, pf: ProgramFunction) -> ProgramFunction:
        current = pf
        while current.summary.parent is not None:
            parent = self.functions.get(
                f"{current.module.relpath}::{current.summary.parent}"
            )
            if parent is None:
                break
            current = parent
        return current

    def lexical_rpcs(self, pf: ProgramFunction) -> List[RpcFact]:
        facts = list(pf.summary.rpcs)
        for child in pf.children:
            facts.extend(self.lexical_rpcs(child))
        return facts

    def lexical_bills(self, pf: ProgramFunction) -> List[BillFact]:
        facts = list(pf.summary.bills)
        for child in pf.children:
            facts.extend(self.lexical_bills(child))
        return facts

    def inherits_from(self, class_name: str, root: str) -> bool:
        """Transitive, name-based subclass test (``DSUD`` → ``Coordinator``)."""
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            name = frontier.pop()
            if name == root:
                return True
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(self.class_bases.get(name, ()))
        return False


class ProgramRule(Rule):
    """Base class for whole-program (SKY6xx) rules.

    Subclasses implement :meth:`check_program`, run once over the
    linked :class:`Program`, instead of per-module :meth:`check`.  The
    driver honours ``# skylint: ignore[...]`` suppressions on the
    finding's anchor line exactly as for module rules.
    """

    def check_program(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        module: ModuleSummary,
        site: Site,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=module.relpath,
            line=site.lineno,
            column=site.col,
            message=message,
            context=site.context,
        )
