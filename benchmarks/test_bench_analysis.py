"""Section IV reproduction: theoretical predictions vs simulation.

* IV-B: consensus latency is O(n/s); committee capping predicts an n/c
  speedup.
* IV-C: traffic is O(n^2); committee capping predicts a (c/n)^2
  reduction.

This bench measures both on unloaded single transactions and checks the
closed-form models in :mod:`repro.metrics.models` track the simulator.
"""

import pytest

from repro.metrics.models import (
    pbft_consensus_seconds,
    pbft_traffic_bytes,
    predicted_traffic_reduction,
)
from repro.experiments.engine import PointSpec, run_point


def _measure(profile):
    s = 10.0  # default NetworkConfig.processing_rate
    rows = []
    for n in (4, 10, 16, 28, 40):
        # unloaded latency: huge proposal period => no queueing
        measured = run_point(PointSpec.make(
            "pbft", "latency", n, seed=1, proposal_period_s=1e9,
            measured=1, warmup=0))[0]
        predicted = pbft_consensus_seconds(n, s, propagation_s=0.0125)
        kb_measured = run_point(PointSpec.make("pbft", "traffic", n))
        kb_predicted = pbft_traffic_bytes(n) / 1024
        rows.append((n, measured, predicted, kb_measured, kb_predicted))
    return rows


def test_analysis_models(run_once, profile):
    rows = run_once(_measure, profile)
    print("\nSection IV -- model vs measurement")
    print(f"{'n':>4} {'lat meas':>9} {'lat model':>9} {'KB meas':>9} {'KB model':>9}")
    for n, lm, lp, km, kp in rows:
        print(f"{n:>4} {lm:>9.2f} {lp:>9.2f} {km:>9.1f} {kp:>9.1f}")

    for n, lat_meas, lat_pred, kb_meas, kb_pred in rows:
        # latency model within 2x (it ignores commit/prepare interleaving)
        assert lat_meas / lat_pred < 2.5
        assert lat_pred / lat_meas < 2.5
        # traffic model within 15% (it is exact up to routing details)
        assert kb_meas == pytest.approx(kb_pred, rel=0.15)

    # IV-C reduction prediction at the largest quick point
    n, cap = 40, 8
    measured_ratio = (
        run_point(PointSpec.make("gpbft", "traffic", n, max_endorsers=cap))
        / run_point(PointSpec.make("pbft", "traffic", n)))
    predicted_ratio = predicted_traffic_reduction(n, cap)
    print(f"traffic reduction at n={n}, c={cap}: measured {measured_ratio:.3f}, "
          f"predicted (c/n)^2 = {predicted_ratio:.3f}")
    assert measured_ratio / predicted_ratio < 3.0
