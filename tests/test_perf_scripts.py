"""The two measuring scripts refuse an option value that would make their
verdict meaningless, before they run anything (``scripts/perf_ops.py``,
``scripts/perf_ab.py``)."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bound", ["nan", "inf", "-inf", "0", "-1", "six"])
def test_perf_ops_refuses_a_calls_bound_no_round_can_fail(bound, monkeypatch, capsys):
    perf_ops = _script("perf_ops")
    # a round must never start: the argument is refused first
    monkeypatch.setattr(perf_ops, "collector_line", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        perf_ops.main(["overload_ladder_n4", "--max-calls-per-msg", bound])
    assert exit_info.value.code == 2
    assert "--max-calls-per-msg" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--setup", "--max-setup-calls", "nan"], ["--setup", "--max-setup-calls", "inf"],
    ["--setup", "--max-setup-calls", "0"], ["--setup", "--max-setup-calls", "-5"],
    ["--max-setup-calls", "10000"], ["--setup", "--max-calls-per-msg", "5"]])
def test_perf_ops_refuses_a_setup_bound_no_build_can_fail(args, monkeypatch, capsys):
    perf_ops = _script("perf_ops")
    # neither a build nor a round may start
    monkeypatch.setattr(perf_ops, "count_setup", pytest.fail)
    monkeypatch.setattr(perf_ops, "collector_line", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        perf_ops.main(["gpbft_paper_n202", *args])
    assert exit_info.value.code == 2
    assert "--max-" in capsys.readouterr().err


def test_perf_ops_takes_a_positive_finite_bound():
    assert math.isclose(_script("perf_ops").positive_finite("9.5"), 9.5)


@pytest.mark.parametrize("pairs", ["-1", "0", "1"])
def test_perf_ab_refuses_fewer_than_two_pairs_before_any_run(pairs, monkeypatch, capsys,
                                                             tmp_path):
    perf_ab = _script("perf_ab")
    monkeypatch.setattr(perf_ab, "run_once", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        perf_ab.main([str(tmp_path), str(tmp_path), "--workload", "overload_ladder_n4",
                      "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_perf_ab_takes_two_pairs():
    assert _script("perf_ab").pair_count("2") == 2
