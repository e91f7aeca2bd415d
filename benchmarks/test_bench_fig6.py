"""Figure 6 reproduction: communication-cost comparison.

Paper claims reproduced: at the headline node count G-PBFT moves a small
percentage of PBFT's bytes (paper: 4.43% at 202 nodes), and the gap
widens with network size (section IV-C: reduction (c/n)^2).
"""

from repro.experiments.figures import figure6
from repro.metrics.models import predicted_traffic_reduction


def test_figure6(run_once, profile, engine):
    result = run_once(figure6, profile, engine=engine)
    print("\n" + result.text)

    pbft, gpbft = result.series
    n = profile.traffic_node_counts[-1]
    cap = profile.max_endorsers

    measured_ratio = gpbft.mean_at(n) / pbft.mean_at(n)
    predicted_ratio = predicted_traffic_reduction(n, cap)

    # who wins and by how much: measured reduction within 3x of the
    # theoretical (c/n)^2 (lower-order terms and request routing differ)
    assert measured_ratio < 0.30
    assert measured_ratio / predicted_ratio < 3.0

    # the gap must widen monotonically past the cap
    ratios = [
        gpbft.mean_at(p.x) / pbft.mean_at(p.x)
        for p in pbft.points
        if p.x >= cap
    ]
    assert all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:])), (
        f"cost ratio must shrink with n, got {ratios}"
    )
