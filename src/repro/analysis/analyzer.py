"""Run the analysis: walk files, parse, run rules, apply allow comments.

A finding is silenced only by an allow comment carrying a reason:

* ``x = f()  # gpb: allow GPB004[, GPB005] -- reason`` silences the
  named rules on its own line;
* a whole-line ``# gpb: allow-file GPB004 -- reason`` silences the
  named rules anywhere in its file (the rules still check the file).

Markers are read from comment tokens, so one inside a string literal is
text, not an allow.  Each rule id an allow names must silence at least
one finding and name a registered rule; otherwise the allow is *stale*.
Every rule reads one file, so every run judges every allow it reads.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.drules import determinism_rules
from repro.analysis.findings import Finding
from repro.analysis.prules import protocol_rules
from repro.analysis.rules import Module, Rule
from repro.common.errors import ConfigurationError

#: Directory names never descended into (relative to each analyzed
#: root, so ``analyze([tests/fixtures/analysis])`` still reaches the
#: fixture tree while ``analyze([tests])`` skips planted violations).
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", "fixtures",
})


def all_rules() -> list[Rule]:
    """The registered rule set, in id order."""
    rules = [*determinism_rules(), *protocol_rules()]
    return sorted(rules, key=lambda r: r.rule_id)


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of one analyzer run.

    Attributes:
        findings: unsuppressed violations, in stable location order.
        suppressed: violations silenced by allow comments.
        stale_suppressions: human-readable descriptions of allows that
            silence nothing, name an unregistered rule id, repeat an
            allow or put a file allow after code (candidates for
            deletion).
        files_analyzed: how many files were parsed and checked.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_suppressions: list[str] = field(default_factory=list)
    files_analyzed: int = 0


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                rel_parts = sub.relative_to(path).parts
                if not any(part in _SKIP_DIRS for part in rel_parts):
                    yield sub


def _normalize(path: Path) -> str:
    """Posix path, relative to the working directory when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_modules(paths: Sequence[Path]) -> dict[str, Module]:
    """Parse every python file under *paths*, keyed by normalized path.

    Raises:
        ConfigurationError: on unreadable or syntactically invalid
            input -- a broken tree is an analysis *error* (exit 2),
            not a finding.
    """
    modules: dict[str, Module] = {}
    for file_path in _iter_python_files(paths):
        rel = _normalize(file_path)
        if rel in modules:
            continue
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot analyze {rel}: {exc}") from exc
        modules[rel] = Module(path=file_path, rel=rel, source=source, tree=tree)
    if not modules:
        raise ConfigurationError(
            "no python files found under: "
            + ", ".join(str(p) for p in paths))
    return modules


#: ``# gpb: allow[-file] GPB004[, GPB005] -- reason`` inside a comment.
_ALLOW_RE = re.compile(
    r"#\s*gpb:\s*allow(?P<file>-file)?\s+"
    r"(?P<ids>GPB\d{3}(?:\s*,\s*GPB\d{3})*)\s*--\s*\S")


def _read_allows(source: str) -> Iterable[tuple[int, bool, bool, str]]:
    """``(line, is_file_allow, is_whole_line, rule_id)`` per named id.

    Only comment tokens are read, so a marker quoted in a string or a
    docstring is not an allow.
    """
    if "gpb:" not in source:
        return
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        match = (_ALLOW_RE.search(tok.string)
                 if tok.type == tokenize.COMMENT else None)
        if match is not None:
            whole_line = not tok.line[:tok.start[1]].strip()
            for rule_id in match.group("ids").split(","):
                yield (tok.start[0], match.group("file") is not None,
                       whole_line, rule_id.strip())


def analyze(paths: Sequence[Path]) -> AnalysisResult:
    """Run every registered rule over *paths* and apply allow comments."""
    modules = load_modules(paths)
    rules = all_rules()
    raw: list[Finding] = []
    for rel in sorted(modules):
        for rule in rules:
            raw.extend(rule.check_module(modules[rel]))

    registered = {rule.rule_id for rule in rules}
    result = AnalysisResult(files_analyzed=len(modules))
    # (path, line or 0 for a file allow, rule id) -> the allow's line
    allows: dict[tuple[str, int, str], int] = {}
    for rel in sorted(modules):
        for line, whole_file, whole_line, rule_id in _read_allows(
                modules[rel].source):
            key = (rel, 0 if whole_file else line, rule_id)
            if rule_id not in registered:
                why = "names a rule that is not registered"
            elif whole_file and not whole_line:
                why = "a file allow must be a whole-line comment"
            elif key in allows:
                why = f"repeats the allow on line {allows[key]}"
            else:
                allows[key] = line
                continue
            result.stale_suppressions.append(f"{rel}:{line}: {rule_id} ({why})")
    used: set[tuple[str, int, str]] = set()
    for finding in sorted(set(raw), key=Finding.sort_key):
        for key in ((finding.path, finding.line, finding.rule_id),
                    (finding.path, 0, finding.rule_id)):
            if key in allows:
                used.add(key)
                result.suppressed.append(finding)
                break
        else:
            result.findings.append(finding)
    result.stale_suppressions.extend(
        f"{key[0]}:{line}: {key[2]} (allow that silences no finding)"
        for key, line in allows.items() if key not in used)
    return result
