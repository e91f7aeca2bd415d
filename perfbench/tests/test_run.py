"""The command line end to end: result line, quick report, bare directory."""

import json
import shutil
import subprocess
import sys

from perfbench.compare import load_report
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.tests.conftest import ROOT

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _result(*args):
    done = subprocess.run([*RUN, "run", *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result("--workload", "gpbft_city_12z", "--seed", "1",
                     "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_traced_run_prints_every_per_layer_metric_and_keeps_the_simulation():
    result = _result("--workload", "pbft_wide_n202", "--seed", "0",
                     "--seconds", "0", "--trace", "1")
    # correct means: digest and simulated metrics equal between the plain
    # rounds and the traced one
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["trace.coverage"] >= 0.9
    assert value["trace.unresolved_seams"] == 0
    assert value["net.share"] > 0.5
    assert value["codec.share"] == 0 and value["core.share"] == 0


def test_quick_report_is_schema_valid_and_compares_clean(tmp_path):
    out = ROOT / "perfbench" / "out" / "test-quick.json"
    done = subprocess.run(
        [*RUN, "report", "--quick", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    try:
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        report = load_report(out)
        assert list(report["workloads"]) == list(WORKLOADS)
        for name, entry in report["workloads"].items():
            assert entry["correct"], (name, entry["problems"])
            assert entry["failed"] == 0
            assert entry["per_layer"]["safety_violations"] == 0
            assert f"== {name}: ok" in done.stdout
        compared = subprocess.run([*RUN, "compare", str(out), str(out)],
                                  capture_output=True, text=True, cwd=ROOT)
        assert compared.returncode == 0, compared.stdout
    finally:
        out.unlink(missing_ok=True)


def test_bare_directory_exits_non_zero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "run", "--workload",
         "wire_replay", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert "src/repro" in done.stderr
