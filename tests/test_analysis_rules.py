"""Mutation self-test for the static analyzer (``repro.analysis``).

Every arm of every rule has a planted violation under
``tests/fixtures/analysis/``, marked by a ``# PLANT: GPBnnn`` comment on
the offending line.  The tests assert the analyzer finds *exactly*
those plants -- no misses (an arm regressed) and no extras (a rule got
noisy) -- plus the suppression machinery, the CLI exit codes, and the
acceptance gate that the real tree is clean under the checked-in
baseline.  Plants sit under ``pbft/`` or ``obs/`` where a rule scopes
by package; GPB015's ``pbft`` plant includes a list grown from a
private event-log subscriber, which only a scan of every method of a
protocol class reaches.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, all_rules, analyze
from repro.analysis.baseline import BaselineEntry, inline_allowed
from repro.analysis.cli import main as analysis_main, render_rule_catalog
from repro.common.errors import ConfigurationError, QuorumError
from repro.common.quorum import (
    max_faulty,
    quorum_size,
    weak_certificate_size,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"
_PLANT_RE = re.compile(r"#\s*PLANT:\s*(GPB\d{3})")


def planted_violations() -> set[tuple[str, str, int]]:
    """(rule id, absolute posix path, 1-based line) of every PLANT marker."""
    plants: set[tuple[str, str, int]] = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _PLANT_RE.search(line)
            if match:
                plants.add((match.group(1), path.as_posix(), lineno))
    return plants


def fixture_findings() -> list[Finding]:
    return analyze([FIXTURES]).findings


def _located(finding: Finding) -> tuple[str, str, int]:
    return (finding.rule_id, Path(finding.path).resolve().as_posix(),
            finding.line)


class TestMutationSelfTest:
    def test_every_rule_has_a_plant(self):
        planted = {rule_id for rule_id, _, _ in planted_violations()}
        rule_ids = {rule.rule_id for rule in all_rules()}
        assert rule_ids == planted, (
            "every registered rule needs at least one planted fixture "
            f"violation; missing: {rule_ids - planted}, "
            f"orphaned plants: {planted - rule_ids}"
        )

    def test_each_plant_fires_exactly_once(self):
        hits = Counter(_located(f) for f in fixture_findings())
        for plant in sorted(planted_violations()):
            assert hits[plant] == 1, (
                f"{plant[0]} fired {hits[plant]} times at "
                f"{plant[1]}:{plant[2]} (expected exactly 1)")

    def test_no_findings_beyond_the_plants(self):
        findings = fixture_findings()
        assert {_located(f) for f in findings} == planted_violations(), (
            f"findings differ from the plants: {[f.render() for f in findings]}")

    def test_findings_carry_line_and_col(self):
        for finding in fixture_findings():
            assert finding.line >= 1 and finding.col >= 1
            assert re.match(r".+:\d+:\d+: GPB\d{3} .+", finding.render())


class TestSuppressions:
    def test_inline_allow_silences_a_finding(self, tmp_path):
        bad = 'import time\n\ndef stamp():\n    return time.time()\n'
        (tmp_path / "mod.py").write_text(bad)
        assert len(analyze([tmp_path]).findings) == 1

        allowed = bad.replace(
            "return time.time()",
            "return time.time()  # gpb: allow GPB001 -- test fixture")
        (tmp_path / "mod.py").write_text(allowed)
        result = analyze([tmp_path])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_inline_allow_requires_matching_rule_id(self):
        lines = ["x = 1  # gpb: allow GPB001 -- wrong rule"]
        finding = Finding("GPB003", "mod.py", 1, 1, "msg")
        assert not inline_allowed(lines, finding)
        assert inline_allowed(
            ["x = 1  # gpb: allow GPB001, GPB003 -- both"], finding)

    def test_baseline_entry_suppresses_by_path_and_line(self):
        baseline = Baseline(entries=[BaselineEntry(
            rule="GPB001", path="pkg/mod.py", line=4, reason="why")])
        hit = Finding("GPB001", "src/pkg/mod.py", 4, 1, "msg")
        miss = Finding("GPB001", "src/pkg/mod.py", 9, 1, "msg")
        assert baseline.suppresses(hit)
        assert not baseline.suppresses(miss)

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        (tmp_path / "clean.py").write_text('"""Nothing wrong here."""\n')
        baseline = Baseline(entries=[BaselineEntry(
            rule="GPB001", path="clean.py", line=1, reason="obsolete")])
        result = analyze([tmp_path], baseline=baseline)
        assert result.findings == []
        assert len(result.stale_suppressions) == 1

    def test_inline_allow_of_a_retired_rule_is_stale(self, tmp_path):
        # spelled through a variable: the analyzer scans this file too,
        # and a literal marker here would itself be a stale allow
        retired = "GPB013"
        (tmp_path / "mod.py").write_text(
            f"x = 1  # gpb: allow {retired} -- old\n")
        result = analyze([tmp_path])
        assert result.findings == []
        assert len(result.stale_suppressions) == 1
        assert f"mod.py:1: {retired}" in result.stale_suppressions[0]
        assert analysis_main(
            [str(tmp_path), "--no-baseline", "--strict-baseline"]) == 1

    def test_baseline_path_keeps_a_leading_dot_directory(self):
        entry = BaselineEntry(
            rule="GPB001", path=".github/x.py", line=None, reason="why")
        assert entry.matches(Finding("GPB001", ".github/x.py", 3, 1, "msg"))
        assert BaselineEntry(
            rule="GPB001", path="./src/x.py", line=None, reason="why",
        ).matches(Finding("GPB001", "src/x.py", 3, 1, "msg"))

    def test_baseline_rejects_missing_reason(self, tmp_path):
        path = tmp_path / "baseline.toml"
        path.write_text('[[suppress]]\nrule = "GPB001"\npath = "a.py"\n')
        with pytest.raises(ConfigurationError, match="reason"):
            Baseline.load(path)

    def test_baseline_rejects_malformed_rule_id(self, tmp_path):
        path = tmp_path / "baseline.toml"
        path.write_text(
            '[[suppress]]\nrule = "OOPS"\npath = "a.py"\nreason = "r"\n')
        with pytest.raises(ConfigurationError, match="GPB001"):
            Baseline.load(path)


class TestCli:
    def test_exit_1_on_findings(self, capsys):
        code = analysis_main([str(FIXTURES), "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        assert "GPB001" in out and re.search(r":\d+:\d+: GPB", out)

    def test_exit_0_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text('"""Clean module."""\nX = 1\n')
        assert analysis_main([str(tmp_path), "--no-baseline"]) == 0

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope"), "--no-baseline"]) == 2

    def test_exit_2_on_syntax_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert analysis_main([str(tmp_path), "--no-baseline"]) == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n")
        code = analysis_main([str(tmp_path), "--no-baseline", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "GPB001"
        assert payload["findings"][0]["line"] == 5

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "GPB001" in proc.stdout


class TestAcceptance:
    def test_real_tree_is_clean_under_checked_in_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.toml")
        result = analyze(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"],
            baseline=baseline)
        assert result.findings == [], (
            "src/tests/examples must be analyzer-clean; fix or justify in "
            "analysis-baseline.toml:\n"
            + "\n".join(f.render() for f in result.findings))
        assert result.stale_suppressions == [], (
            "baseline entries no longer match anything; delete them:\n"
            + "\n".join(result.stale_suppressions))

    def test_rule_catalog_documented(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for rule in all_rules():
            assert rule.rule_id in doc, f"{rule.rule_id} missing from docs"
            assert rule.title in doc, f"{rule.rule_id} title missing from docs"

    def test_catalog_renders_every_rule(self):
        catalog = render_rule_catalog()
        for rule in all_rules():
            assert f"### {rule.rule_id}" in catalog

    def test_docs_catalog_is_the_rendered_catalog(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        assert doc[doc.index("## Rule catalog"):] == render_rule_catalog(), (
            "docs/static-analysis.md drifted from the rule docstrings; "
            "regenerate its catalog with `python -m repro.analysis --doc`")


class TestQuorumHelpers:
    def test_max_faulty_matches_castro_liskov(self):
        assert [max_faulty(n) for n in (4, 6, 7, 10, 40)] == [1, 1, 2, 3, 13]
        with pytest.raises(QuorumError):
            max_faulty(3)

    def test_quorum_size_is_2f_plus_1(self):
        assert [quorum_size(f) for f in (0, 1, 2, 13)] == [1, 3, 5, 27]
        with pytest.raises(QuorumError):
            quorum_size(-1)

    def test_weak_certificate_size(self):
        assert weak_certificate_size(1) == 2
        with pytest.raises(QuorumError):
            weak_certificate_size(-1)
