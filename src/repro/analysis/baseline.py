"""Suppression handling: the TOML baseline file and inline allows.

Two suppression channels exist, both requiring a justification:

* **Baseline file** (``analysis-baseline.toml`` at the repo root) --
  the reviewed allowlist.  Each entry names a rule, a file, optionally
  a line, and a mandatory ``reason``::

      [[suppress]]
      rule = "GPB003"
      path = "src/repro/chain/mempool.py"
      line = 72            # optional: omit to cover the whole file
      reason = "FIFO serving order *is* the OrderedDict insertion contract"

* **Inline comment** -- for one-off cases best justified next to the
  code::

      for timer in self._timers.values():  # gpb: allow GPB003 -- cancel order is irrelevant

  The marker must sit on the flagged line; multiple ids are
  comma-separated, and the text after ``--`` is the justification.

Baseline entries that match no finding, and inline allows naming a
rule id nothing registers (a retired rule), are reported as *stale* so
suppressions shrink as code is fixed (``--strict-baseline`` turns stale
entries into a failure).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

try:  # python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

from repro.analysis.findings import Finding
from repro.common.errors import ConfigurationError

#: Inline marker: ``# gpb: allow GPB001[,GPB003] [-- reason]``.
_INLINE_RE = re.compile(
    r"#\s*gpb:\s*allow\s+(?P<ids>GPB\d{3}(?:\s*,\s*GPB\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One reviewed suppression from the baseline file.

    Attributes:
        rule: the rule id the entry silences.
        path: posix path of the file (matched on normalized suffix, so
            entries written repo-root-relative keep working when the
            analyzer is invoked from a subdirectory).
        line: 1-based line pin, or ``None`` to cover the whole file.
        reason: mandatory human justification.
    """

    rule: str
    path: str
    line: int | None
    reason: str

    def matches(self, finding: Finding) -> bool:
        """Whether this entry suppresses *finding*."""
        if finding.rule_id != self.rule:
            return False
        if self.line is not None and finding.line != self.line:
            return False
        norm = self.path.replace("\\", "/").removeprefix("./")
        return finding.path == norm or finding.path.endswith("/" + norm) or \
            norm.endswith("/" + finding.path)


@dataclass(slots=True)
class Baseline:
    """The parsed baseline plus bookkeeping of which entries fired."""

    entries: list[BaselineEntry] = field(default_factory=list)
    _used: set[int] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Parse *path*; raises ConfigurationError on malformed entries."""
        if tomllib is None:  # pragma: no cover - 3.10 fallback
            raise ConfigurationError(
                "baseline files need python >= 3.11 (tomllib)")
        try:
            data = tomllib.loads(path.read_text())
        except (OSError, tomllib.TOMLDecodeError) as exc:
            raise ConfigurationError(f"cannot read baseline {path}: {exc}") from exc
        entries = []
        for i, raw in enumerate(data.get("suppress", [])):
            rule = raw.get("rule", "")
            file_path = raw.get("path", "")
            reason = str(raw.get("reason", "")).strip()
            if not re.fullmatch(r"GPB\d{3}", str(rule)):
                raise ConfigurationError(
                    f"baseline entry {i}: 'rule' must look like GPB001")
            if not file_path:
                raise ConfigurationError(f"baseline entry {i}: 'path' is required")
            if not reason:
                raise ConfigurationError(
                    f"baseline entry {i}: a non-empty 'reason' is required")
            line = raw.get("line")
            if line is not None and (not isinstance(line, int) or line < 1):
                raise ConfigurationError(
                    f"baseline entry {i}: 'line' must be a positive integer")
            entries.append(BaselineEntry(
                rule=str(rule), path=str(file_path), line=line, reason=reason))
        return cls(entries=entries)

    def suppresses(self, finding: Finding) -> bool:
        """Whether any entry covers *finding* (marks the entry used)."""
        hit = False
        for i, entry in enumerate(self.entries):
            if entry.matches(finding):
                self._used.add(i)
                hit = True
        return hit

    def stale_entries(self) -> list[BaselineEntry]:
        """Entries that matched nothing in the last run."""
        return [e for i, e in enumerate(self.entries) if i not in self._used]


def inline_ids(line: str) -> set[str]:
    """Rule ids named by the inline allow marker on *line* (empty if none)."""
    match = _INLINE_RE.search(line)
    if not match:
        return set()
    return {part.strip() for part in match.group("ids").split(",")}


def inline_allowed(lines: list[str], finding: Finding) -> bool:
    """Whether the flagged line carries a matching inline allow marker."""
    return (1 <= finding.line <= len(lines)
            and finding.rule_id in inline_ids(lines[finding.line - 1]))
