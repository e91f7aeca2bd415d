"""The contract file and the vocabulary stay in step and within limits."""

import json
import re

from perfbench.spec import (
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json)
from perfbench.tests.conftest import ROOT
from perfbench.workloads import BY_NAME

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_spec_rendered():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}


def test_names_units_and_counts_are_within_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert 1 <= RUN_SECONDS <= 60
    names = list(WORKLOADS) + [m.name for m in END_TO_END + PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for why in WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_end_to_end_has_bounds_and_setup_has_the_largest():
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(b is not None and 0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m.bound is None for m in PER_LAYER)


def test_every_named_workload_has_an_implementation():
    assert list(BY_NAME) == list(WORKLOADS)
