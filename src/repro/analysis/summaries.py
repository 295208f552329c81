"""Phase 1 of the whole-program analyzer: per-file summaries.

skylint v1 re-walked every AST for every rule on every run, and each
rule saw exactly one file.  v2 splits the work:

* **Phase 1** (this module) distills each parsed file into a
  :class:`ModuleSummary` — the defined functions and classes, raw call
  edges, and per-function protocol facts (endpoint RPCs,
  `NetworkStats` billing, blocking calls, RNG constructions).
* **Phase 2** (:mod:`repro.analysis.callgraph`) links summaries into a
  project call graph and runs the SKY6xx rules over it.

Every recorded fact carries a :class:`Site` — line, column, and
enclosing ``Class.method`` context — so a phase-2 finding is anchored
exactly like a per-module one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .framework import ModuleContext, dotted_name

__all__ = [
    "Site",
    "CallFact",
    "RpcFact",
    "BillFact",
    "BlockFact",
    "RngFact",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "build_summary",
    "RPC_METHODS",
    "ACCOUNTING_MARKERS",
    "MESSAGE_MARKERS",
    "BLOCKING_CALLS",
]

#: The SiteEndpoint surface (plus the strawman bulk-ship calls, the
#: replica write-forwarding RPCs, and the continuous-query stream-site
#: surface): invoking any of these on another object is a protocol
#: message.
RPC_METHODS = frozenset(
    {
        "prepare",
        "pop_representative",
        "probe_and_prune",
        "probe_and_prune_batch",
        "queue_size",
        "fast_forward",
        "partition_digest",
        "ship_all",
        "ship_local_skyline",
        "probe",
        "probe_batch",
        "dominated_local_candidates",
        "set_replica",
        "insert_tuple",
        "delete_tuple",
        "register_group",
        "drop_group",
        "close_epoch",
        "sync_candidates",
    }
)

#: A call whose dotted name ends in one of these counts as accounting:
#: ``NetworkStats.bill`` prices messages, ``record_round`` a round.
ACCOUNTING_MARKERS = ("bill", "record_round")

#: The subset of :data:`ACCOUNTING_MARKERS` that bills an individual
#: *message* (a run loop calling ``record_round`` is not a wrapper that
#: bills its callees' RPCs).
MESSAGE_MARKERS = frozenset({"bill"})

#: Dotted call forms that block the calling thread outright.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "socket.socketpair",
        "select.select",
    }
)

_POOL_JOINS = frozenset({"shutdown", "join"})

_RNG_WALL_SEEDS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow"}
)


@dataclass(frozen=True)
class Site:
    """Anchor for a fact: where a finding raised from it points."""

    lineno: int
    col: int
    context: str


@dataclass(frozen=True)
class CallFact:
    """One call site: the raw dotted callee text, resolved in phase 2."""

    callee: str
    site: Site


@dataclass(frozen=True)
class RpcFact:
    """A site-endpoint RPC: a call, or a bound-method reference passed
    as an argument (the coordinator's ``self._rpc(site, "x", site.x)``
    thunk pattern)."""

    method: str
    receiver: str
    is_ref: bool
    site: Site


@dataclass(frozen=True)
class BillFact:
    """A `NetworkStats` accounting call, with the MessageKind member it
    bills when one is syntactically present in the arguments."""

    marker: str
    kind: Optional[str]
    site: Site


@dataclass(frozen=True)
class BlockFact:
    """A call that blocks the thread (sleep, raw socket, pool join)."""

    name: str
    kind: str  # "sleep" | "socket" | "select" | "pool-join"
    site: Site


@dataclass(frozen=True)
class RngFact:
    """An RNG construction and where its value flows.

    ``flows`` entries: ``"return"``, ``"call:<raw callee>:<arg>"``
    (``<arg>`` a position or keyword name), ``"attr:<self path>"``.
    """

    callee: str
    seeding: str  # "unseeded" | "wall" | "seeded"
    flows: Tuple[str, ...]
    site: Site


@dataclass
class FunctionSummary:
    """Everything phase 2 needs to know about one function."""

    qualname: str
    name: str
    class_name: Optional[str]
    parent: Optional[str]  # qualname of the lexically enclosing function
    lineno: int
    is_async: bool
    is_generator: bool
    params: List[str] = field(default_factory=list)
    calls: List[CallFact] = field(default_factory=list)
    rpcs: List[RpcFact] = field(default_factory=list)
    bills: List[BillFact] = field(default_factory=list)
    blocking: List[BlockFact] = field(default_factory=list)
    rng: List[RngFact] = field(default_factory=list)
    #: parameter name -> flow descriptors (same alphabet as RngFact.flows)
    param_flows: Dict[str, List[str]] = field(default_factory=dict)
    #: raw callee -> flows of values produced by calling it
    result_flows: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class ClassSummary:
    name: str
    bases: List[str]
    lineno: int
    methods: List[str] = field(default_factory=list)
    #: self attribute -> class name it was constructed/annotated as
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: class-body assignments (enum members, class constants) -> site
    attrs: Dict[str, Site] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    relpath: str
    module_name: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/net/aio.py`` and ``repro/net/aio.py`` both map to
    ``repro.net.aio``; harness files keep their directory as the
    package (``benchmarks.test_x``).
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def``s.

    Lambdas stay inline (they run in the defining function's frame for
    our purposes — the coordinator's RPC thunks are lambdas), nested
    named functions get their own summaries.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_attr_path(node: ast.AST) -> Optional[str]:
    """``self.a.b`` -> ``"self.a.b"``; None for anything else."""
    name = dotted_name(node)
    if name == "self" or name.startswith("self."):
        return name
    return None


def _is_pool_receiver(func: ast.Attribute) -> bool:
    receiver = dotted_name(func.value).lower()
    return "pool" in receiver or "executor" in receiver


def _wait_false(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "wait" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _bill_kind(call: ast.Call) -> Optional[str]:
    """The ``MessageKind.X`` member named anywhere in the arguments."""
    for arg in ast.walk(call):
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == "MessageKind"
        ):
            return arg.attr
    return None


def _rng_seeding(call: ast.Call) -> str:
    if not call.args and not call.keywords:
        return "unseeded"
    seed: Optional[ast.expr] = call.args[0] if call.args else None
    if seed is None:
        for kw in call.keywords:
            if kw.arg in ("seed", "x"):
                seed = kw.value
    if seed is None:
        return "seeded"
    if isinstance(seed, ast.Constant) and seed.value is None:
        return "unseeded"
    for sub in ast.walk(seed):
        if isinstance(sub, ast.Call) and dotted_name(sub.func) in _RNG_WALL_SEEDS:
            return "wall"
    return "seeded"


def _is_rng_ctor(raw: str) -> bool:
    return (
        raw in ("random.Random", "Random")
        or raw.endswith("default_rng")
        or raw.endswith(".RandomState")
    )


class _SummaryBuilder:
    def __init__(self, module: ModuleContext) -> None:
        self.module = module
        self.summary = ModuleSummary(
            relpath=module.relpath,
            module_name=module_name_for(module.relpath),
        )

    # -- helpers -------------------------------------------------------

    def _site(self, node: ast.AST) -> Site:
        return Site(
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            context=self.module.enclosing_context(node),
        )

    # -- imports -------------------------------------------------------

    def _collect_imports(self) -> None:
        package = self.summary.module_name.rsplit(".", 1)[0]
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.summary.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = self.summary.module_name.split(".")
                    anchor = anchor[: len(anchor) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                elif not base:
                    base = package
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.summary.imports[local] = f"{base}.{alias.name}"

    # -- classes -------------------------------------------------------

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases: List[str] = []
        for b in node.bases:
            if isinstance(b, ast.Name):
                bases.append(b.id)
            elif isinstance(b, ast.Attribute):
                bases.append(b.attr)
        cls = ClassSummary(name=node.name, bases=bases, lineno=node.lineno)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods.append(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cls.attrs[target.id] = self._site(stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                cls.attrs[stmt.target.id] = self._site(stmt)
        self.summary.classes[node.name] = cls

    def _collect_attr_types(
        self, cls: ClassSummary, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        annotations: Dict[str, str] = {}
        for arg in list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        ):
            if arg.annotation is not None:
                ann = arg.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    annotations[arg.arg] = ann.value.split(".")[-1].strip("\"'")
                else:
                    tail = dotted_name(ann).split(".")[-1]
                    if tail:
                        annotations[arg.arg] = tail
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if attr in cls.attr_types:
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in annotations:
                cls.attr_types[attr] = annotations[value.id]
            elif isinstance(value, ast.Call):
                tail = dotted_name(value.func).split(".")[-1]
                if tail[:1].isupper():
                    cls.attr_types[attr] = tail

    # -- functions -----------------------------------------------------

    def build(self) -> ModuleSummary:
        self._collect_imports()
        self._visit_body(self.module.tree.body, class_name=None, parent=None)
        return self.summary

    def _visit_body(
        self,
        body: List[ast.stmt],
        class_name: Optional[str],
        parent: Optional[str],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)
                self._visit_body(stmt.body, class_name=stmt.name, parent=None)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(stmt, class_name, parent)

    def _collect_function(
        self,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        class_name: Optional[str],
        parent: Optional[str],
    ) -> None:
        qualname = self.module.enclosing_context(fn)
        qualname = f"{qualname}.{fn.name}" if qualname != "<module>" else fn.name
        params = [
            a.arg
            for a in list(fn.args.posonlyargs)
            + list(fn.args.args)
            + list(fn.args.kwonlyargs)
            if a.arg not in ("self", "cls")
        ]
        summary = FunctionSummary(
            qualname=qualname,
            name=fn.name,
            class_name=class_name,
            parent=parent,
            lineno=fn.lineno,
            is_async=isinstance(fn, ast.AsyncFunctionDef),
            is_generator=any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(fn)
            ),
            params=params,
        )
        if class_name is not None:
            self._collect_attr_types(self.summary.classes[class_name], fn)
        own = list(_own_nodes(fn))
        self._collect_calls(summary, own)
        self._collect_flows(summary, fn, own)
        self.summary.functions[qualname] = summary
        # Recurse into nested named defs (they get their own summaries,
        # linked by an implicit parent->child call edge in phase 2).
        for node in own:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node, class_name, qualname)

    def _collect_calls(
        self, summary: FunctionSummary, own: List[ast.AST]
    ) -> None:
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw:
                summary.calls.append(CallFact(callee=raw, site=self._site(node)))
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in RPC_METHODS:
                receiver = dotted_name(func.value)
                summary.rpcs.append(
                    RpcFact(
                        method=func.attr,
                        receiver=receiver,
                        is_ref=False,
                        site=self._site(node),
                    )
                )
            # Script descriptors: `_Rpc(site, "method", ...)` is the
            # point where a protocol message is decided — the shared
            # sync/async drivers only relay it — so the construction
            # site carries the RpcFact the billing ledger matches.
            if (
                isinstance(func, ast.Name)
                and func.id == "_Rpc"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and node.args[1].value in RPC_METHODS
            ):
                summary.rpcs.append(
                    RpcFact(
                        method=node.args[1].value,
                        receiver=dotted_name(node.args[0]),
                        is_ref=False,
                        site=self._site(node),
                    )
                )
            # Bound RPC methods passed as arguments (the `_rpc` thunk
            # pattern) are messages too even though nothing calls them
            # lexically here.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Attribute) and arg.attr in RPC_METHODS:
                    summary.rpcs.append(
                        RpcFact(
                            method=arg.attr,
                            receiver=dotted_name(arg.value),
                            is_ref=True,
                            site=self._site(arg),
                        )
                    )
            tail = raw.split(".")[-1] if raw else ""
            if tail in ACCOUNTING_MARKERS:
                summary.bills.append(
                    BillFact(marker=tail, kind=_bill_kind(node), site=self._site(node))
                )
            if raw in BLOCKING_CALLS:
                kind = (
                    "sleep"
                    if raw == "time.sleep"
                    else "select"
                    if raw == "select.select"
                    else "socket"
                )
                summary.blocking.append(
                    BlockFact(name=raw, kind=kind, site=self._site(node))
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _POOL_JOINS
                and _is_pool_receiver(func)
                and not _wait_false(node)
            ):
                summary.blocking.append(
                    BlockFact(name=raw, kind="pool-join", site=self._site(node))
                )

    # -- dataflow facts ------------------------------------------------

    def _flows_of(
        self, own: List[ast.AST], matches: "ast.expr | str"
    ) -> List[str]:
        """Where a value flows inside this function.

        ``matches`` is either a specific expression node (a construction
        used in place) or a local name (a parameter or a binding).
        """

        def hit(expr: ast.expr) -> bool:
            if isinstance(matches, str):
                return isinstance(expr, ast.Name) and expr.id == matches
            return expr is matches

        flows: List[str] = []
        for node in own:
            if isinstance(node, ast.Return) and node.value is not None:
                if hit(node.value):
                    flows.append("return")
            elif isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                if not raw:
                    continue
                for pos, arg in enumerate(node.args):
                    if hit(arg):
                        flows.append(f"call:{raw}:{pos}")
                for kw in node.keywords:
                    if kw.arg is not None and hit(kw.value):
                        flows.append(f"call:{raw}:{kw.arg}")
            elif isinstance(node, ast.Assign) and hit(node.value):
                for target in node.targets:
                    path = _self_attr_path(target)
                    if path:
                        flows.append(f"attr:{path}")
        return flows

    def _collect_flows(
        self,
        summary: FunctionSummary,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        own: List[ast.AST],
    ) -> None:
        bindings: Dict[str, ast.Call] = {}
        for node in own:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                bindings[node.targets[0].id] = node.value

        # RNG constructions and where they flow.
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if not raw or not _is_rng_ctor(raw):
                continue
            bound = [n for n, c in bindings.items() if c is node]
            flows = self._flows_of(own, bound[0]) if bound else self._flows_of(own, node)
            summary.rng.append(
                RngFact(
                    callee=raw,
                    seeding=_rng_seeding(node),
                    flows=tuple(sorted(set(flows))),
                    site=self._site(node),
                )
            )

        # Parameter flows (for interprocedural taint propagation).
        for param in summary.params:
            flows = self._flows_of(own, param)
            if flows:
                summary.param_flows[param] = sorted(set(flows))

        # Result flows: values produced by calls and where they go.
        for name, call in bindings.items():
            raw = dotted_name(call.func)
            if not raw:
                continue
            flows = self._flows_of(own, name)
            if flows:
                summary.result_flows.setdefault(raw, [])
                summary.result_flows[raw] = sorted(
                    set(summary.result_flows[raw]) | set(flows)
                )
        for node in own:
            if isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                if not raw:
                    continue
                direct = self._flows_of(own, node)
                if direct:
                    summary.result_flows.setdefault(raw, [])
                    summary.result_flows[raw] = sorted(
                        set(summary.result_flows[raw]) | set(direct)
                    )


def build_summary(module: ModuleContext) -> ModuleSummary:
    """Distill one parsed module into its phase-1 summary."""
    return _SummaryBuilder(module).build()
