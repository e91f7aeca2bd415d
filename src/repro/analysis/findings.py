"""Finding records produced by the static analyzer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a precise source location.

    Attributes:
        rule_id: stable rule identifier, e.g. ``"GPB005"``.
        path: file the violation lives in, as a normalized (posix,
            relative where possible) path string.
        line: 1-based line number.
        col: 1-based column number (AST columns are 0-based; the
            analyzer shifts them so editors and humans agree).
        message: one-line description of what is wrong and how to fix it.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: RULE message`` output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: by path, line, column, then rule id."""
        return (self.path, self.line, self.col, self.rule_id)
