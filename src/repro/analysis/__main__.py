"""The skylint command line: ``python -m repro.analysis``.

Runs the two-phase whole-program analyzer (per-file summaries + module
rules, then the call-graph SKY6xx rules) with the incremental summary
cache on by default.  Exit status is 0 only when the run is *clean*: no
finding outside the baseline and no stale baseline entry.
``--write-baseline`` accepts the current findings as the new baseline
(justifications must then be filled in by hand — the self-check test
refuses empty ones).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import (
    DEFAULT_BASELINE_NAME,
    compare,
    load_baseline,
    write_baseline,
)
from .cache import DEFAULT_CACHE_NAME
from .engine import ENGINE_VERSION, analyze_project
from .reporters import render_json, render_sarif, render_text
from .rules import ALL_RULES, PROGRAM_RULES, rules_by_id

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
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"baseline file (default: <repo-root>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding is new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list findings matched by the baseline (text format)",
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
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=None,
        help="summary cache file "
        f"(default: <repo-root>/{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the summary cache (cold run)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print phase timings and cache hit counts to stderr",
    )
    return parser


def _explain(rule_id: str) -> int:
    registry = rules_by_id()
    rule = registry.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(registry))
        print(f"unknown rule {rule_id!r}; known rules: {known}", file=sys.stderr)
        return 2
    kind = "whole-program" if rule in PROGRAM_RULES else "per-module"
    print(f"{rule.id}  {rule.name}  [{rule.severity}]  ({kind})")
    print()
    print(rule.description.strip())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    if args.list_rules:
        for rule in [*ALL_RULES, *PROGRAM_RULES]:
            print(f"{rule.id}  {rule.name}  [{rule.severity}]")
            print(f"    {rule.description.strip()}")
        return 0

    root = _repo_root(Path.cwd())
    if args.paths:
        paths: List[Path] = [Path(p) for p in args.paths]
    else:
        paths = [root / d for d in DEFAULT_SCAN_DIRS if (root / d).is_dir()]
        if not paths:
            paths = [root]

    cache_path: Optional[Path]
    if args.no_cache:
        cache_path = None
    elif args.cache:
        cache_path = Path(args.cache)
    else:
        cache_path = root / DEFAULT_CACHE_NAME

    findings, stats = analyze_project(
        paths, ALL_RULES, PROGRAM_RULES, root=root, cache_path=cache_path
    )
    if args.stats:
        print(stats.render(), file=sys.stderr)

    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    )
    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}; "
            "add a justification to every entry"
        )
        return 0

    baseline = [] if args.no_baseline else load_baseline(baseline_path)
    comparison = compare(findings, baseline)

    rules = [*ALL_RULES, *PROGRAM_RULES]
    if args.format == "json":
        print(render_json(comparison, rules))
    elif args.format == "sarif":
        print(render_sarif(comparison, rules, engine_version=ENGINE_VERSION))
    else:
        print(render_text(comparison, rules, show_matched=args.show_baselined))
    return 0 if comparison.clean else 1


if __name__ == "__main__":
    sys.exit(main())
