"""The content-hash-keyed summary cache (``.skylint-cache.json``).

Phase 1 of the whole-program analyzer is the expensive half: parsing
every file and distilling it into a summary.  The cache persists, per
file, the summary and that file's module-rule findings keyed by

* the SHA-256 of the file's *content* — touching a file without
  changing it is a hit, editing one byte is a miss;
* an engine **signature** (engine version + the rule registry) — any
  change to the analyzer itself discards the whole cache;
* a per-run **findings signature** covering the cross-file facts
  module rules can see (the class hierarchy) — if another file's edit
  changes the project class graph, cached findings are recomputed (the
  summaries stay valid).

The file lives at the repo root, is never committed (gitignored), and
is safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .framework import Finding
from .summaries import ModuleSummary

__all__ = ["CacheEntry", "SummaryCache", "DEFAULT_CACHE_NAME", "content_sha"]

DEFAULT_CACHE_NAME = ".skylint-cache.json"

_CACHE_VERSION = 1


def content_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_signature(engine_version: str, rule_ids: Sequence[str]) -> str:
    payload = json.dumps([engine_version, sorted(rule_ids)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    sha: str
    summary: ModuleSummary
    findings_sig: str
    findings: List[Finding]

    def to_dict(self) -> Dict[str, object]:
        return {
            "sha": self.sha,
            "summary": self.summary.to_dict(),
            "findings_sig": self.findings_sig,
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheEntry":
        return cls(
            sha=str(data["sha"]),
            summary=ModuleSummary.from_dict(data["summary"]),  # type: ignore[arg-type]
            findings_sig=str(data["findings_sig"]),
            findings=[Finding.from_dict(d) for d in data["findings"]],  # type: ignore[union-attr]
        )


class SummaryCache:
    """Load/store per-file summaries and module-rule findings."""

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self.entries: Dict[str, CacheEntry] = {}
        self._dirty = False

    @classmethod
    def load(cls, path: Path, signature: str) -> "SummaryCache":
        cache = cls(path, signature)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if (
            not isinstance(raw, dict)
            or raw.get("version") != _CACHE_VERSION
            or raw.get("signature") != signature
        ):
            cache._dirty = True
            return cache
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            return cache
        for relpath, entry in entries.items():
            try:
                cache.entries[str(relpath)] = CacheEntry.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue
        return cache

    def get(self, relpath: str, sha: str) -> Optional[CacheEntry]:
        entry = self.entries.get(relpath)
        if entry is not None and entry.sha == sha:
            return entry
        return None

    def put(
        self,
        relpath: str,
        sha: str,
        summary: ModuleSummary,
        findings_sig: str,
        findings: List[Finding],
    ) -> None:
        self.entries[relpath] = CacheEntry(
            sha=sha, summary=summary, findings_sig=findings_sig, findings=findings
        )
        self._dirty = True

    def prune(self, keep: Set[str]) -> None:
        stale = [relpath for relpath in self.entries if relpath not in keep]
        for relpath in stale:
            del self.entries[relpath]
            self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "version": _CACHE_VERSION,
            "signature": self.signature,
            "entries": {
                relpath: entry.to_dict()
                for relpath, entry in sorted(self.entries.items())
            },
        }
        try:
            self.path.write_text(
                json.dumps(payload, separators=(",", ":")), encoding="utf-8"
            )
        except OSError:
            # A read-only checkout (CI without the cache step) just
            # runs cold every time; caching is an optimisation only.
            pass
        self._dirty = False
