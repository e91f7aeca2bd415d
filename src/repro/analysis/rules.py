"""Rule framework for the determinism & protocol-safety analyzer.

A rule is a subclass of :class:`Rule` with a stable ``rule_id``
(``GPB004``...), a one-line ``title``, and a class docstring that doubles
as its catalog entry in ``docs/static-analysis.md`` (rendered by
``python -m repro.analysis --doc``).  Rules inspect parsed modules --
never the running program -- and yield :class:`~repro.analysis.findings.Finding`
records with precise ``file:line:col`` locations.  Every rule reads one
file at a time through :meth:`Rule.check_module` (float equality,
inline quorum arithmetic, ...); what only a run can show -- which
event kinds are recorded, what memory is retained, whether a run
depends on its process -- is checked by tier-1 tests that run the
program instead.

A rule is one bug class; each way of writing that bug is an *arm* of
the rule with its own finding message.  Rules are registered by
:func:`repro.analysis.analyzer.all_rules` from
:mod:`repro.analysis.drules` and :mod:`repro.analysis.prules`; the
fixture self-test (``tests/test_analysis_rules.py``) requires at least
one planted violation per rule and findings on the fixture tree that
are exactly the plants; each arm keeps a plant of its own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding


@dataclass(slots=True)
class Module:
    """One parsed source file.

    Attributes:
        path: absolute path on disk.
        rel: normalized posix path used in findings
            (relative to the invocation directory when possible).
        source: raw text.
        tree: parsed AST.
    """

    path: Path
    rel: str
    source: str
    tree: ast.Module

    def segments(self) -> tuple[str, ...]:
        """Path segments of :attr:`rel` (used for package scoping)."""
        return tuple(self.rel.split("/"))


class Rule:
    """Base class for analyzer rules."""

    #: Stable identifier, e.g. ``"GPB004"``.
    rule_id: str = ""
    #: One-line summary shown by ``--doc`` and ``--list-rules``.
    title: str = ""

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Yield findings for one file."""
        return ()

    # -- shared helpers ---------------------------------------------------

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node* (1-based columns)."""
        return Finding(
            rule_id=self.rule_id,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a Name/Attribute chain, else ``""``.

    ``time.time`` -> ``"time.time"``; ``self.rng.choice`` ->
    ``"self.rng.choice"``; anything non-name-like yields ``""``.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee (empty for computed callees)."""
    return dotted_name(node.func)


def in_package(module: Module, *names: str) -> bool:
    """True when any path segment of the module matches one of *names*.

    Scoping is segment-based rather than repo-absolute so the same rules
    run unchanged over ``src/repro/`` and over the fixture tree used by
    the self-test.
    """
    segs = module.segments()
    return any(name in segs for name in names)
