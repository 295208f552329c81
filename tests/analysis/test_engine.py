"""The driver: files on disk, both phases, one suppression lookup."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import analyze_paths, run_rules
from repro.analysis.rules import RULES

#: One module-rule finding (SKY202, line 6) and one program-rule
#: finding (SKY601, line 10) in the same file.
_DIRTY = """\
import time


class Service:
    def stamp(self):
        return time.time()

    async def step(self):
        self.stamp()
        time.sleep(0.1)
"""


def _run(tmp_path: Path, source: str):
    pkg = tmp_path / "src" / "repro" / "serve"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "fake.py").write_text(source, encoding="utf-8")
    return run_rules(analyze_paths([tmp_path / "src"], tmp_path), RULES)


def test_suppressions_survive_the_cache(tmp_path):
    # Both phases read the same inline suppressions: a reasoned
    # `ignore` silences a per-module and a whole-program finding alike.
    findings = _run(tmp_path, _DIRTY)
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("SKY202", "src/repro/serve/fake.py", 6),
        ("SKY601", "src/repro/serve/fake.py", 10),
    ]
    suppressed = _DIRTY.replace(
        "return time.time()",
        "return time.time()  # skylint: ignore[SKY202] bench stamp",
    ).replace(
        "time.sleep(0.1)",
        "time.sleep(0.1)  # skylint: ignore[SKY601] fixture: deliberate stall",
    )
    assert _run(tmp_path, suppressed) == []
