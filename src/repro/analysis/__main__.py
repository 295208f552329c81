"""The skylint command line: ``python -m repro.analysis [paths]``.

Runs every rule over the sources and prints one line per finding.  Exit
status: 0 when there are no findings, 1 when there are, 2 when a source
cannot be analysed (a named path is missing, or a file is not UTF-8 or
not valid Python) or ``--explain`` names an unknown rule.  The one way
to waive a finding is a reasoned inline ``# skylint: ignore[SKY###]
reason``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .callgraph import ProgramRule
from .engine import SourceError, analyze_paths, run_rules
from .rules import RULES, rules_by_id

#: Directories scanned when no explicit paths are given.  Benchmarks
#: and examples are protocol clients too — an unbilled RPC or unseeded
#: workload there corrupts the paper's figures just as surely.
DEFAULT_SCAN_DIRS = ("src", "benchmarks", "examples")


def _repo_root(start: Path) -> Path:
    """The nearest ancestor holding pyproject.toml (fallback: cwd)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="skylint: repo-specific whole-program static analysis "
        "(protocol accounting, determinism, probability safety, "
        "RPC discipline, event-loop discipline)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyse "
        f"(default: {'/, '.join(DEFAULT_SCAN_DIRS)}/ under the repo root)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="SKY###",
        default=None,
        help="print one rule's full description and exit",
    )
    return parser


def _explain(rule_id: str) -> int:
    registry = rules_by_id()
    rule = registry.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(registry))
        print(f"unknown rule {rule_id!r}; known rules: {known}", file=sys.stderr)
        return 2
    kind = "whole-program" if isinstance(rule, ProgramRule) else "per-module"
    print(f"{rule.id}  {rule.name}  [{rule.severity}]  ({kind})")
    print()
    print(rule.description.strip())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.name}  [{rule.severity}]")
            print(f"    {rule.description.strip()}")
        return 0

    root = _repo_root(Path.cwd())
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [root / d for d in DEFAULT_SCAN_DIRS if (root / d).is_dir()] or [root]

    try:
        modules = analyze_paths(paths, root)
    except SourceError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        return 2
    findings = run_rules(modules, RULES)
    for f in findings:
        print(f"{f.location()}  {f.rule} [{f.severity}]  {f.message}")
    if findings:
        print(f"skylint: {len(findings)} finding(s)")
        return 1
    print(f"skylint: clean ({len(modules)} file(s), {len(RULES)} rule(s) ran)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
