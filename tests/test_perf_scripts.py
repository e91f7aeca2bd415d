"""The measuring scripts refuse an option value that would make their
verdict meaningless, before they run anything (``scripts/perf_ops.py``,
``scripts/perf_ab.py``, ``scripts/perf_overhead.py``,
``scripts/check_sim_digests.py``)."""

from __future__ import annotations

import importlib.util
import json
import math
import types
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


@pytest.mark.parametrize("args", [
    ["--memory", "--max-peak-mb", "nan"], ["--memory", "--max-peak-mb", "inf"],
    ["--memory", "--max-peak-mb", "0"], ["--memory", "--max-peak-mb", "-2"],
    ["--max-peak-mb", "12"], ["--memory", "--setup"],
    ["--memory", "--max-calls-per-msg", "5"]])
def test_perf_ops_refuses_a_peak_bound_no_run_can_fail(args, monkeypatch, capsys):
    perf_ops = _script("perf_ops")
    # no round may be built, counted or traced
    monkeypatch.setattr(perf_ops, "count_memory", pytest.fail)
    monkeypatch.setattr(perf_ops, "count_setup", pytest.fail)
    monkeypatch.setattr(perf_ops, "collector_line", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        perf_ops.main(["pbft_wide_n202", *args])
    assert exit_info.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_perf_ops_memory_exits_1_on_a_peak_above_its_bound(capsys):
    perf_ops = _script("perf_ops")

    class Round:
        """About 1.1 MB kept alive by its run."""
        name = "stub"

        def run(self):
            self.kept = [bytes(1000) for _ in range(1000)]

        def outcome(self):
            return types.SimpleNamespace(digest="0" * 16, problems=[])

    assert perf_ops.count_memory(Round(), 3, 0.5) == 1
    assert "exceeds 0.5 MB" in capsys.readouterr().err
    assert perf_ops.count_memory(Round(), 3, 5.0) == 0
    out = capsys.readouterr().out
    assert "traced peak" in out and "tests/test_perf_scripts.py" in out


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


@pytest.mark.parametrize("args", [
    ["wire_replay"], ["pbft_wide_n202"], ["gpbft_city_12z", "--pairs", "2"],
    ["failover_n16", "--pairs", "0"], ["failover_n16", "--pairs", "-1"]])
def test_perf_overhead_refuses_before_any_round(args, monkeypatch, capsys):
    perf_overhead = _script("perf_overhead")
    monkeypatch.setattr(perf_overhead, "time_round", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        perf_overhead.main(args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--pairs" in err or "has no variant" in err


def test_perf_overhead_reads_the_median_of_the_pair_ratios(monkeypatch, capsys):
    perf_overhead = _script("perf_overhead")
    monkeypatch.setattr(perf_overhead, "time_round", lambda cls, seed, variant: (
        1.0 if variant == "plain" else 1.5, "same"))
    assert perf_overhead.main(["gpbft_city_12z", "--pairs", "3"]) == 0
    assert "obs.on_overhead_ratio: median 1.500" in capsys.readouterr().out


def test_perf_overhead_fails_when_the_variant_simulates_something_else(monkeypatch):
    perf_overhead = _script("perf_overhead")
    monkeypatch.setattr(perf_overhead, "time_round", lambda cls, seed, variant: (
        1.0, variant))
    assert perf_overhead.main(["failover_n16", "--pairs", "3"]) == 1


def test_check_sim_digests_refuses_an_unknown_workload_before_any_run(monkeypatch, capsys):
    check = _script("check_sim_digests")
    monkeypatch.setattr(check, "run_digest", pytest.fail)
    assert check.main(["--workload", "pbft_wide_n202", "--workload", "nope"]) == 2
    assert "unknown workload: nope" in capsys.readouterr().err


def test_check_sim_digests_pins_every_workload_at_both_seeds():
    check = _script("check_sim_digests")
    pinned = json.loads(check.PIN.read_text())
    assert set(pinned) == set(check.WORKLOADS)
    assert all(set(by_seed) == set(check.SEEDS) for by_seed in pinned.values())


def test_check_sim_digests_names_every_digest_that_differs(monkeypatch, capsys):
    check = _script("check_sim_digests")
    pinned = json.loads(check.PIN.read_text())
    moved = {("failover_n16", "23"), ("wire_replay", "0")}
    monkeypatch.setattr(check, "run_digest", lambda workload, seed: (
        "0" * 64 if (workload, str(seed)) in moved else pinned[workload][str(seed)]))
    assert check.main([]) == 1
    differ = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("DIFFER")]
    assert sorted(differ) == [
        f"DIFFER failover_n16 seed 23: pinned {pinned['failover_n16']['23'][:16]}, "
        f"measured {'0' * 16}",
        f"DIFFER wire_replay seed 0: pinned {pinned['wire_replay']['0'][:16]}, "
        f"measured {'0' * 16}"]
    assert check.differences(pinned, {"wire_replay": {"23": "f" * 64}}) == [
        f"wire_replay seed 23: pinned {pinned['wire_replay']['23'][:16]}, "
        f"measured {'f' * 16}"]
    assert check.differences({}, {"wire_replay": {"0": "f" * 64}}) == [
        f"wire_replay seed 0: pinned nothing, measured {'f' * 16}"]


def test_check_sim_digests_passes_when_every_digest_equals_its_pin(monkeypatch):
    check = _script("check_sim_digests")
    pinned = json.loads(check.PIN.read_text())
    monkeypatch.setattr(check, "run_digest",
                        lambda workload, seed: pinned[workload][str(seed)])
    assert check.main(["--workload", "overload_ladder_n4"]) == 0
