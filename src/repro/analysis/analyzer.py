"""Analysis driver: walk files, parse, run rules, apply suppressions."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import Baseline, inline_allowed, inline_ids
from repro.analysis.drules import determinism_rules
from repro.analysis.findings import Finding
from repro.analysis.orules import observability_rules
from repro.analysis.prules import protocol_rules
from repro.analysis.rules import Module, Project, Rule
from repro.common.errors import ConfigurationError

#: Directory names never descended into (relative to each analyzed
#: root, so ``analyze([tests/fixtures/analysis])`` still reaches the
#: fixture tree while ``analyze([tests])`` skips planted violations).
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", "fixtures",
})


def all_rules() -> list[Rule]:
    """The registered rule set, in id order."""
    rules = [*determinism_rules(), *protocol_rules(), *observability_rules()]
    return sorted(rules, key=lambda r: r.rule_id)


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of one analyzer run.

    Attributes:
        findings: unsuppressed violations, in stable location order.
        suppressed: violations silenced by the baseline or inline allows.
        stale_suppressions: human-readable descriptions of baseline
            entries that matched nothing and of inline allows naming an
            unregistered rule id (candidates for deletion).
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


def load_modules(paths: Sequence[Path]) -> Project:
    """Parse every python file under *paths* into a :class:`Project`.

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
        modules[rel] = Module(
            path=file_path, rel=rel, source=source, tree=tree,
            lines=source.splitlines(),
        )
    if not modules:
        raise ConfigurationError(
            "no python files found under: "
            + ", ".join(str(p) for p in paths))
    return Project(modules=modules)


def analyze(paths: Sequence[Path],
            baseline: Baseline | None = None) -> AnalysisResult:
    """Run every registered rule over *paths*.

    Suppression order: inline allows are checked first, then baseline
    entries; a finding silenced by either lands in ``suppressed``.
    """
    project = load_modules(paths)
    rules = all_rules()
    raw: list[Finding] = []
    for rel in sorted(project.modules):
        for rule in rules:
            raw.extend(rule.check_module(project.modules[rel]))
    for rule in rules:
        raw.extend(rule.check_project(project))

    result = AnalysisResult(files_analyzed=len(project.modules))
    for finding in sorted(set(raw), key=Finding.sort_key):
        module = project.modules.get(finding.path)
        if module is not None and inline_allowed(module.lines, finding):
            result.suppressed.append(finding)
        elif baseline is not None and baseline.suppresses(finding):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    if baseline is not None:
        result.stale_suppressions = [
            f"{e.path}:{e.line or '*'}: {e.rule} ({e.reason})"
            for e in baseline.stale_entries()
        ]
    registered = {rule.rule_id for rule in rules}
    for rel in sorted(project.modules):
        for lineno, line in enumerate(project.modules[rel].lines, start=1):
            if "gpb:" in line:
                result.stale_suppressions.extend(
                    f"{rel}:{lineno}: {rule_id} (inline allow of a rule "
                    "that is not registered)"
                    for rule_id in sorted(inline_ids(line) - registered))
    return result
