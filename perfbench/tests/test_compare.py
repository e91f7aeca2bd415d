"""``compare`` verdicts on hand-made reports, and its exit codes."""

import copy
import json

import pytest

from perfbench.compare import compare, compare_files, verdict
from perfbench.report import SCHEMA
from perfbench.spec import END_TO_END
from perfbench.stats import quartiles


def _row(values):
    q1, median, q3 = quartiles(values)
    return {"unit": "s", "values": values, "q1": q1, "median": median, "q3": q3}


def _report(**overrides):
    rows = {m.name: _row([100.0, 101.0, 102.0]) for m in END_TO_END}
    rows.update({k: _row(v) for k, v in overrides.items()})
    return {"schema": SCHEMA, "workloads": {"w": {
        "sim_digest": "d0", "end_to_end": rows,
        "per_layer": {"net.share": 0.6, "pbft.share": 0.4}}}}


def test_verdicts_for_a_lower_is_better_metric():
    base = [100.0, 101.0, 102.0]
    def judge(new):
        return verdict(base, new, 101.0, sorted(new)[1], "lower", 0.10)
    assert judge([100.5, 101.5, 102.5]) == "within-bound"
    assert judge([105.0, 106.0, 107.0]) == "within-bound"
    assert judge([120.0, 121.0, 122.0]) == "worse"
    assert judge([80.0, 81.0, 82.0]) == "better"


def test_direction_flips_for_higher_is_better():
    base = [100.0, 101.0, 102.0]
    assert verdict(base, [80.0, 81.0, 82.0], 101.0, 81.0, "higher", 0.10) == "worse"
    assert verdict(base, [120.0, 121.0, 122.0], 101.0, 121.0, "higher", 0.10) == "better"


def test_wide_overlapping_runs_are_unresolved_not_worse():
    base = [80.0, 100.0, 120.0]
    new = [90.0, 115.0, 140.0]
    assert verdict(base, new, 100.0, 115.0, "lower", 0.10) == "unresolved"
    # wide but disjoint and all slower: the medians can tell
    assert verdict(base, [150.0, 180.0, 210.0], 100.0, 180.0, "lower", 0.10) == "worse"


def test_compare_rows_sim_changed_and_layer_movers():
    base = _report()
    new = _report(wall_s=[130.0, 131.0, 132.0])
    new["workloads"]["w"]["sim_digest"] = "d1"
    new["workloads"]["w"]["per_layer"] = {"net.share": 0.5, "pbft.share": 0.5}
    lines, any_worse = compare(base, new)
    text = "\n".join(lines)
    assert any_worse
    assert "wall_s" in text and "worse" in text
    assert "sim_changed=true" in text
    assert "net -0.100" in text and "pbft +0.100" in text
    lines, any_worse = compare(base, copy.deepcopy(base))
    assert not any_worse
    assert "sim_changed=false" in "\n".join(lines)


def test_exit_codes(tmp_path, capsys):
    good, worse, broken = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    good.write_text(json.dumps(_report()))
    worse.write_text(json.dumps(_report(setup_s=[200.0, 201.0, 202.0])))
    assert compare_files(good, good) == 0
    assert compare_files(good, worse) == 1
    bad = _report()
    del bad["workloads"]["w"]["end_to_end"]["wall_s"]["values"]
    broken.write_text(json.dumps(bad))
    capsys.readouterr()
    assert compare_files(good, broken) == 2
    assert "workloads.w.end_to_end.wall_s" in capsys.readouterr().out
    broken.write_text("{not json")
    assert compare_files(broken, good) == 2
    broken.write_text(json.dumps({"schema": "other"}))
    assert compare_files(good, broken) == 2
    assert "schema" in capsys.readouterr().out
    assert compare_files(good, tmp_path / "absent.json") == 2
