"""Tests: every name a package ``__init__`` imports is read through it.

A re-export is a second import path for a name its defining module
already gives.  One that nothing reads as ``from repro.<pkg> import X``
or ``repro.<pkg>.X`` only loads modules and grows ``src/``; this fails
on it.  The reader may be code, a test, a script, the benchmark, the
Makefile, CI or a document's example.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = sorted(path.parent.name
                  for path in (ROOT / "src" / "repro").glob("*/__init__.py"))
READERS = [path for top in ("src", "tests", "examples", "scripts", "perfbench",
                            "benchmarks")
           for path in sorted((ROOT / top).rglob("*.py"))]
READERS += [ROOT / "Makefile", ROOT / ".github" / "workflows" / "ci.yml",
            ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md"))]
TEXT = {path: path.read_text() for path in READERS}


def _imported(package):
    """Names the package's ``__init__`` binds by importing them."""
    init = ROOT / "src" / "repro" / package / "__init__.py"
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(init.read_text(), str(init)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def _read_through(package):
    """Names some reader takes from ``repro.<package>`` itself."""
    init = ROOT / "src" / "repro" / package / "__init__.py"
    dotted = rf"\brepro\.{package}"
    found = set()
    for path, text in TEXT.items():
        if path == init:
            continue
        found.update(re.findall(dotted + r"\.(\w+)", text))
        for group in re.findall(r"\bfrom\s+" + dotted + r"\s+import\s+(\([^)]*\)|[^\n]*)",
                                text):
            for item in re.sub(r"#[^\n]*", "", group).strip("()").split(","):
                if item.split():
                    found.add(item.split()[0])
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_every_re_export_has_a_reader(package):
    unread = sorted(_imported(package) - _read_through(package))
    assert not unread, (
        f"repro.{package} re-exports {unread}, which nothing reads through the "
        "package: import them from their defining module and drop them here")
