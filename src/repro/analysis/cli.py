"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit codes:

* ``0`` -- analysis ran and found nothing unsuppressed and no stale
  allow;
* ``1`` -- at least one finding or stale ``# gpb: allow`` comment;
* ``2`` -- usage or configuration error (bad path, unparseable input).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.analyzer import AnalysisResult, all_rules, analyze
from repro.common.errors import ConfigurationError


def default_paths() -> list[str]:
    """The trees analyzed when no paths are given.

    ``src`` plus -- when invoked from the repo root -- ``tests`` and
    ``examples``, so planted regressions in test helpers and example
    scripts are covered by the same gate (fixture trees are skipped by
    the walker).
    """
    roots = [p for p in ("src", "tests", "examples") if Path(p).is_dir()]
    return roots or ["src"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & protocol-safety static analyzer "
                    "for the G-PBFT reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze "
                             "(default: src + tests + examples, as present)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="finding output format")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and titles, then exit")
    parser.add_argument("--doc", action="store_true",
                        help="print the markdown rule catalog, then exit")
    return parser


def render_rule_catalog() -> str:
    """Markdown catalog rendered from each rule's docstring.

    This is the generator behind the rule table in
    ``docs/static-analysis.md``; regenerate with
    ``python -m repro.analysis --doc``.
    """
    sections = ["## Rule catalog", ""]
    for rule in all_rules():
        doc = inspect.cleandoc(rule.__class__.__doc__ or "")
        sections.append(f"### {rule.rule_id} — {rule.title}")
        sections.append("")
        sections.append(doc)
        sections.append("")
    return "\n".join(sections)


def _print_text(result: AnalysisResult) -> None:
    for finding in result.findings:
        print(finding.render())
    for stale in result.stale_suppressions:
        print(f"stale suppression: {stale}", file=sys.stderr)
    summary = (
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.stale_suppressions)} stale suppression(s), "
        f"{result.files_analyzed} file(s) analyzed"
    )
    print(summary, file=sys.stderr)


def _print_json(result: AnalysisResult) -> None:
    print(json.dumps({
        "findings": [
            {"rule": f.rule_id, "path": f.path, "line": f.line,
             "col": f.col, "message": f.message}
            for f in result.findings
        ],
        "suppressed": len(result.suppressed),
        "stale_suppressions": result.stale_suppressions,
        "files_analyzed": result.files_analyzed,
    }, indent=2))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    paths = args.paths if args.paths else default_paths()

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    if args.doc:
        print(render_rule_catalog())
        return 0
    try:
        result = analyze([Path(p) for p in paths])
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        _print_json(result)
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif(result, all_rules()))
    else:
        _print_text(result)

    return 1 if result.findings or result.stale_suppressions else 0
