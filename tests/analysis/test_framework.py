"""Framework-level behaviour: the rule registry and suppressions."""

from __future__ import annotations

from repro.analysis.engine import run_rules
from repro.analysis.framework import ModuleContext
from repro.analysis.rules import RULES, rules_by_id
from repro.analysis.rules.probability import FloatEqualityRule

BAD_FLOAT_EQ = """\
def check(prob):
    return prob == 0.5
"""


def _module(source: str, relpath: str = "repro/core/fake.py") -> ModuleContext:
    return ModuleContext(relpath, source)


def test_rule_registry_ids_are_unique():
    ids = [rule.id for rule in RULES]
    assert len(ids) == len(set(ids))
    assert rules_by_id()["SKY301"].name == "probability-float-equality"


def test_suppression_with_reason_silences_the_finding():
    source = BAD_FLOAT_EQ.replace(
        "prob == 0.5",
        "prob == 0.5  # skylint: ignore[SKY301] fixture: documented waiver",
    )
    findings = run_rules([_module(source)], [FloatEqualityRule()])
    assert findings == []


def test_suppression_without_reason_is_itself_reported():
    source = BAD_FLOAT_EQ.replace(
        "prob == 0.5", "prob == 0.5  # skylint: ignore[SKY301]"
    )
    findings = run_rules([_module(source)], [FloatEqualityRule()])
    assert [f.rule for f in findings] == ["SKY000"]
    assert findings[0].severity == "error"


def test_wildcard_suppression_covers_every_rule():
    source = BAD_FLOAT_EQ.replace(
        "prob == 0.5", "prob == 0.5  # skylint: ignore[*] fixture: waive all"
    )
    findings = run_rules([_module(source)], [FloatEqualityRule()])
    assert findings == []
