"""Tests: commands the docs, Makefile and CI name point at things that exist.

A deletion that misses one mention leaves an instruction nobody can
run; these fail on it.  ``perfbench/README.md`` is part of the frozen
benchmark and is not read here.  The last test runs pytest itself under
the repo's ``pyproject.toml``: its warning filter is an instruction too.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [ROOT / "README.md", ROOT / "Makefile",
           ROOT / ".github" / "workflows" / "ci.yml",
           *sorted((ROOT / "docs").glob("*.md"))]
MAKE_TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(),
                              re.MULTILINE))


def _named(pattern):
    """``(file name, match)`` for every match of *pattern* in SOURCES."""
    return sorted({(path.name, found) for path in SOURCES
                   for found in re.findall(pattern, path.read_text(), re.MULTILINE)})


@pytest.mark.parametrize("source,module", _named(r"python3? -m (repro(?:\.\w+)+)"))
def test_named_module_is_runnable(source, module):
    path = ROOT / "src" / Path(*module.split("."))
    assert (path / "__main__.py").is_file() or path.with_suffix(".py").is_file(), (
        f"{source} names `python -m {module}`, which does not exist")


# a target is what `make` is followed by when the command ends there
# (backtick, end of line, trailing comment): "make a run's ..." is prose
@pytest.mark.parametrize("source,target",
                         _named(r"\bmake ([a-z][\w-]*)(?=`|\s*$|\s+#)"))
def test_named_make_target_exists(source, target):
    assert target in MAKE_TARGETS, f"{source} names `make {target}`"


@pytest.mark.parametrize("source,script", _named(r"\bscripts/\w+\.py\b"))
def test_named_script_exists(source, script):
    assert (ROOT / script).is_file(), f"{source} names {script}"


def _recipe_lines(makefile):
    """The Makefile's recipe lines, backslash continuations joined."""
    lines, current = [], ""
    for line in makefile.splitlines():
        if line.startswith("\t") or current:
            current += line.rstrip("\\").strip() + " "
            if not line.endswith("\\"):
                lines.append(current.strip())
                current = ""
    return lines


def test_every_python_recipe_sets_pythonpath():
    # a checkout without `pip install -e .` runs every recipe that
    # imports repro only if the recipe points Python at src/ itself
    bare = [line for line in _recipe_lines((ROOT / "Makefile").read_text())
            if "pip install" not in line
            and line.count("$(PYTHON)") != line.count("PYTHONPATH=src $(PYTHON)")]
    assert bare == []


def _runtime_obs_imports(tree):
    """Line numbers of ``repro.obs`` imports outside ``if TYPE_CHECKING:``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            found += _runtime_obs_imports(ast.Module(node.orelse, []))
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            found += _runtime_obs_imports(node)
            continue
        if any(name == "repro.obs" or name.startswith("repro.obs.") for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("package", ["net", "pbft", "core", "chain", "geo", "crypto",
                                     "codec", "common", "workloads"])
def test_protocol_packages_import_nothing_from_obs(package):
    # observability listens to event logs and reads the network's
    # counters; protocol code must not know it is being watched (a
    # type-only import names the class and loads nothing)
    for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
        found = _runtime_obs_imports(ast.parse(path.read_text(), str(path)))
        assert not found, f"{path.relative_to(ROOT)} imports repro.obs at lines {found}"


def test_nothing_in_src_replaces_a_network_send():
    # every perturbation is a network fault or a latency model; a module
    # that assigns ``send`` would push every broadcast onto the per-copy
    # path the benchmark never times
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "send"
                    and isinstance(node.ctx, ast.Store)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("module", ["pbft/client.py", "core/era.py"])
def test_event_log_writers_import_nothing_from_obs(module):
    # a client's requests and a node's era switches reach obs through
    # the event log they are recorded on, never through a direct call
    text = (ROOT / "src" / "repro" / module).read_text()
    found = re.findall(r"^\s*(?:from|import) repro\.obs\b.*", text, re.MULTILINE)
    assert not found, f"{module} imports repro.obs: {found}"


def test_observability_hooks_are_the_facts_no_log_records():
    from repro.obs.core import Observability

    wiring = {"bind", "for_zone", "snapshot", "attach_host", "listen", "finish"}
    hooks = {name for name, value in vars(Observability).items()
             if callable(value) and not name.startswith("_")} - wiring
    assert hooks == {"pbft_preprepare", "pbft_prepared", "state_transfer",
                     "geo_report", "mempool_depth"}


def test_the_benchmark_loads_no_experiment_or_verify_module():
    # perfbench times the modules it imports; the experiment harness and
    # the explorer riding along would cost every benchmark process memory
    probe = ("import sys, perfbench.workloads; "
             "print(' '.join(m for m in sys.modules "
             "if m.startswith(('repro.experiments', 'repro.verify'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_PROBE = """\
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 5


def test_a_deprecation_attributed_to_the_tests_is_an_error():
    with pytest.raises(DeprecationWarning, match="ours to fix"):
        warnings.warn("ours to fix", DeprecationWarning)
"""


def test_a_failing_hypothesis_test_prints_its_example_under_the_repo_config(tmp_path):
    # reporting a Hypothesis failure imports third-party modules that warn
    # of deprecations at import time; turned into errors there, they abort
    # the session from inside pytest's report hook
    package = tmp_path / "tests"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "test_probe.py").write_text(_PROBE)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTEST_ADDOPTS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(package)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
