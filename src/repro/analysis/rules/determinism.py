"""SKY201/SKY202 — determinism: seeded randomness, no wall clocks.

Chaos tests, synthetic workloads, and the benchmark's counts are
reproducible only because every random draw is a pure function of an
explicit seed (``FaultSchedule``'s jitter, ``Workload``'s generators)
and no decision reads the wall clock.  These rules keep that property
machine-checked:

* **SKY201** forbids the process-global RNGs (``random.random()``,
  ``numpy.random.rand`` …) and unseeded generator construction —
  ``random.Random()``, ``np.random.default_rng()``, or passing a
  maybe-``None`` seed parameter straight through without a default.
* **SKY202** forbids wall-clock reads (``time.time``,
  ``datetime.now`` …).  The monotonic/CPU clocks used for *measuring*
  (``perf_counter``, ``process_time``, ``monotonic``) stay legal: they
  feed reports, never decisions.

Benchmark drivers, the CLI entry points, and the real-socket transport
are exempt — wall time and OS entropy are their job.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = ["UnseededRandomRule", "WallClockRule"]

#: Paths where nondeterminism is the point, not a bug.
EXEMPT_PATH_PARTS = ("bench/", "/cli.py", "/__main__.py", "net/sockets.py")

#: Additional wall-clock-only exemptions: benchmark and example drivers
#: time real runs (SKY202 would flag their wall-clock stamps), but their
#: *workloads* must still replay from explicit seeds (SKY201 stays on).
WALL_CLOCK_EXEMPT_PARTS = EXEMPT_PATH_PARTS + ("benchmarks/", "examples/")

#: ``random.<attr>`` calls that are fine: explicit-seed construction and
#: state plumbing.  Everything else on the module object draws from the
#: hidden process-global generator.
_RANDOM_MODULE_OK = {"Random", "SystemRandom", "getstate", "setstate"}

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_NUMPY_LEGACY_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "BitGenerator"}

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


def _path_exempt(module: ModuleContext) -> bool:
    path = "/" + module.relpath
    return any(part in path for part in EXEMPT_PATH_PARTS)


def _may_evaluate_none(node: ast.AST) -> bool:
    """True if the expression can *evaluate to* ``None``.

    Only positions whose value can become the result count: an
    ``IfExp``'s body/orelse (not its test — ``0 if seed is None else
    seed`` is the correct normalisation and must stay clean) and a
    ``BoolOp``'s operands.
    """
    if isinstance(node, ast.Constant):
        return node.value is None
    if isinstance(node, ast.IfExp):
        return _may_evaluate_none(node.body) or _may_evaluate_none(node.orelse)
    if isinstance(node, ast.BoolOp):
        return any(_may_evaluate_none(v) for v in node.values)
    return False


def _maybe_none_parameter(
    module: ModuleContext, call: ast.Call, arg: ast.expr
) -> Optional[str]:
    """Name of a param that can still be ``None`` at this call, if any.

    Flags ``default_rng(seed)`` where ``seed`` is a parameter whose
    default is ``None`` and which was never reassigned earlier in the
    function — the caller-forgot-a-seed path that silently loses
    reproducibility.
    """
    if not isinstance(arg, ast.Name):
        return None
    fn = module.enclosing_function(call)
    if fn is None:
        return None
    args = fn.args
    params = list(args.posonlyargs) + list(args.args)
    defaults = list(args.defaults)
    defaulted = dict(zip([p.arg for p in params[len(params) - len(defaults):]], defaults))
    for kwarg, kwdefault in zip(args.kwonlyargs, args.kw_defaults):
        if kwdefault is not None:
            defaulted[kwarg.arg] = kwdefault
    default = defaulted.get(arg.id)
    if default is None or not (
        isinstance(default, ast.Constant) and default.value is None
    ):
        return None
    # A prior assignment (e.g. ``seed = 0 if seed is None else seed``)
    # counts as normalisation and clears the flag.
    for node in ast.walk(fn):
        if getattr(node, "lineno", 10**9) >= call.lineno:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == arg.id:
                    return None
    return arg.id


class UnseededRandomRule(Rule):
    id = "SKY201"
    name = "determinism-rng"
    severity = Severity.ERROR
    description = (
        "Unseeded or process-global RNG use outside bench/CLI/socket code: "
        "every draw must come from an explicitly seeded generator so chaos "
        "runs and synthetic workloads replay exactly."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return not _path_exempt(module)

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        imported = _imported_random_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            yield from self._check_global_rng(module, node, name, imported)
            yield from self._check_ctor(module, node, name)

    def _check_global_rng(
        self,
        module: ModuleContext,
        node: ast.Call,
        name: str,
        imported: Set[str],
    ) -> Iterator[Finding]:
        parts = name.split(".")
        if parts[0] == "random" and "random" in imported:
            if len(parts) == 2 and parts[1] not in _RANDOM_MODULE_OK:
                yield module.finding(
                    self,
                    node,
                    f"`{name}(...)` draws from the process-global RNG; "
                    "construct a `random.Random(seed)` and thread it through",
                )
        if parts[:2] in (["np", "random"], ["numpy", "random"]):
            if len(parts) == 3 and parts[2] not in _NUMPY_LEGACY_OK:
                yield module.finding(
                    self,
                    node,
                    f"`{name}(...)` uses numpy's legacy global RandomState; "
                    "use an explicitly seeded `np.random.default_rng(seed)`",
                )

    def _check_ctor(
        self, module: ModuleContext, node: ast.Call, name: str
    ) -> Iterator[Finding]:
        is_random_ctor = name in ("random.Random", "Random")
        is_default_rng = name.endswith("default_rng")
        if not (is_random_ctor or is_default_rng):
            return
        label = "random.Random" if is_random_ctor else "np.random.default_rng"
        if not node.args and not node.keywords:
            yield module.finding(
                self,
                node,
                f"`{label}()` without a seed is entropy-seeded and "
                "unreproducible; pass an explicit seed",
            )
            return
        seed_arg: Optional[ast.expr] = node.args[0] if node.args else None
        if seed_arg is None:
            for kw in node.keywords:
                if kw.arg in ("seed", "x"):
                    seed_arg = kw.value
        if seed_arg is None:
            return
        if _may_evaluate_none(seed_arg):
            yield module.finding(
                self,
                node,
                f"`{label}(...)` can receive `None` here, which falls back "
                "to OS entropy; normalise the seed to an int first",
            )
            return
        param = _maybe_none_parameter(module, node, seed_arg)
        if param is not None:
            yield module.finding(
                self,
                node,
                f"`{label}({param})` where `{param}` defaults to None: the "
                "no-argument path is unseeded; default the seed to an int "
                f"or normalise `{param}` before constructing the generator",
            )


class WallClockRule(Rule):
    id = "SKY202"
    name = "determinism-clock"
    severity = Severity.ERROR
    description = (
        "Wall-clock reads (time.time, datetime.now) outside bench/CLI/socket "
        "code: simulated time comes from LatencyModel and measurements from "
        "the monotonic/CPU clocks, so reruns never depend on the real clock."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        path = "/" + module.relpath
        return not any(part in path for part in WALL_CLOCK_EXEMPT_PARTS)

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCKS:
                yield module.finding(
                    self,
                    node,
                    f"`{name}()` reads the wall clock; use "
                    "`time.perf_counter`/`time.process_time` for measurement "
                    "or the simulated `LatencyModel` clock for protocol time",
                )


def _imported_random_names(module: ModuleContext) -> Set[str]:
    """Top-level module names imported as ``random`` (guards false hits
    on unrelated locals that happen to be called ``random``)."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names
