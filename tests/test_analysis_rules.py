"""Mutation self-test for the static analyzer (``repro.analysis``).

Every arm of every rule has a planted violation under
``tests/fixtures/analysis/``, marked by a ``# PLANT: GPBnnn`` comment on
the offending line.  The tests assert the analyzer finds *exactly*
those plants -- no misses (an arm regressed) and no extras (a rule got
noisy) -- plus the allow comments, the CLI exit codes, and the
acceptance gate that the real tree is clean with no stale allow.  A
plant sits under ``pbft/`` where its rule scopes by package.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Finding, all_rules, analyze
from repro.analysis.cli import main as analysis_main, render_rule_catalog
from repro.common.errors import QuorumError
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


_QUORUM = "def prepared(votes, f):\n    return votes >= 2 * f + 1"


def _stale(tmp_path, source: str) -> list[str]:
    """Stale allows in a one-file tree holding *source*, directory cut.

    Also checks that the CLI fails on them.
    """
    (tmp_path / "mod.py").write_text(source)
    assert analysis_main([str(tmp_path)]) == 1
    return [stale.rpartition("/")[2]
            for stale in analyze([tmp_path]).stale_suppressions]


class TestSuppressions:
    def test_inline_allow_silences_a_finding(self, tmp_path):
        (tmp_path / "mod.py").write_text(_QUORUM + "\n")
        assert len(analyze([tmp_path]).findings) == 1

        (tmp_path / "mod.py").write_text(
            _QUORUM + "  # gpb: allow GPB005 -- test fixture\n")
        result = analyze([tmp_path])
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.stale_suppressions == []

    def test_inline_allow_requires_matching_rule_id(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            _QUORUM + "  # gpb: allow GPB004 -- wrong rule\n")
        assert [f.rule_id for f in analyze([tmp_path]).findings] == ["GPB005"]
        # the id that silenced nothing is stale on its own
        assert _stale(tmp_path, _QUORUM + "  # gpb: allow GPB005, GPB004 -- both\n"
                      ) == ["mod.py:2: GPB004 (allow that silences no finding)"]
        assert analyze([tmp_path]).findings == []

    def test_allow_without_a_reason_is_not_an_allow(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            _QUORUM + "  # gpb: allow GPB005\n")
        assert len(analyze([tmp_path]).findings) == 1

    def test_inline_allow_of_a_retired_rule_is_stale(self, tmp_path):
        stale = _stale(tmp_path, "x = 1  # gpb: allow GPB001 -- a clock\n")
        assert stale == [
            "mod.py:1: GPB001 (names a rule that is not registered)"]

    def test_line_allow_that_silences_nothing_is_stale(self, tmp_path):
        stale = _stale(tmp_path, "x = 1  # gpb: allow GPB005 -- was a quorum\n")
        assert stale == ["mod.py:1: GPB005 (allow that silences no finding)"]

    def test_file_allow_that_silences_nothing_is_stale(self, tmp_path):
        stale = _stale(
            tmp_path, "# gpb: allow-file GPB004 -- exact asserts\nx = 1\n")
        assert stale == ["mod.py:1: GPB004 (allow that silences no finding)"]

    def test_a_repeated_file_allow_is_stale(self, tmp_path):
        stale = _stale(tmp_path, "# gpb: allow-file GPB004 -- exact asserts\n"
                                 "# gpb: allow-file GPB004 -- again\n"
                                 "assert 0.5 == 0.5\n")
        assert stale == ["mod.py:2: GPB004 (repeats the allow on line 1)"]

    def test_file_allow_after_code_is_stale(self, tmp_path):
        stale = _stale(tmp_path, "x = 1.0\nassert x == 1.0  "
                                 "# gpb: allow-file GPB004 -- exact asserts\n")
        assert stale == [
            "mod.py:2: GPB004 (a file allow must be a whole-line comment)"]

    def test_file_allow_silences_its_rule_but_the_file_is_still_checked(
            self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "# gpb: allow-file GPB004 -- exact asserts\n"
            "assert 0.5 == 0.5\nassert 1.5 != 2.5\n" + _QUORUM + "\n")
        result = analyze([tmp_path])
        assert [f.rule_id for f in result.suppressed] == ["GPB004", "GPB004"]
        assert [f.rule_id for f in result.findings] == ["GPB005"]
        assert result.stale_suppressions == []

    def test_marker_inside_a_string_is_neither_an_allow_nor_stale(
            self, tmp_path):
        (tmp_path / "mod.py").write_text(
            _QUORUM + ', "# gpb: allow GPB005 -- quoted"\n'
            'DOC = """\n# gpb: allow-file GPB004 -- quoted\n"""\n')
        result = analyze([tmp_path])
        assert [f.rule_id for f in result.findings] == ["GPB005"]
        assert result.suppressed == []
        assert result.stale_suppressions == []


class TestCli:
    def test_exit_1_on_findings(self, capsys):
        code = analysis_main([str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "GPB005" in out and re.search(r":\d+:\d+: GPB", out)

    def test_exit_0_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text('"""Clean module."""\nX = 1\n')
        assert analysis_main([str(tmp_path)]) == 0

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2

    def test_exit_2_on_syntax_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert analysis_main([str(tmp_path)]) == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_QUORUM + "\n")
        code = analysis_main([str(tmp_path), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "GPB005"
        assert payload["findings"][0]["line"] == 2

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
        assert re.findall(r"^GPB\d{3}", proc.stdout, re.M) == [
            "GPB004", "GPB005", "GPB007", "GPB008"]


class TestAcceptance:
    def test_real_tree_is_clean_with_no_stale_allow(self):
        result = analyze(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"])
        assert result.findings == [], (
            "src/tests/examples must be analyzer-clean; fix or justify with "
            "a `# gpb: allow` comment:\n"
            + "\n".join(f.render() for f in result.findings))
        assert result.stale_suppressions == [], (
            "these allows silence nothing; delete them:\n"
            + "\n".join(result.stale_suppressions))

    def test_a_run_over_part_of_the_tree_reports_no_stale_allow(self, capsys):
        for part in (REPO_ROOT / "tests" / "test_obs.py",
                     REPO_ROOT / "src" / "repro" / "pbft"):
            assert analyze([part]).stale_suppressions == [], part
            assert analysis_main([str(part)]) == 0, part

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
