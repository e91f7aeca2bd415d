"""Table IV reproduction: consensus-mechanism comparison.

The paper's table is qualitative; its G-PBFT row claims High speed,
High scalability, Low network overhead, Low computing overhead, <33.3%
endorser tolerance.  This bench regenerates the table and backs the
G-PBFT row with measured proxies:

* scalability / overhead: per-transaction cost stays near-flat from 12
  to 60 nodes with a capped committee, and far below PBFT's;
* adversary tolerance: a committee of 4 still commits with 1 crash
  (f = 1) and stalls with 2 (> 1/3), measured live.
"""

from repro.common.config import TopologySpec
from repro.experiments.tables import table4
from repro.pbft import CrashFaults, RawOperation


def _commits_with_crashes(crashes: int) -> bool:
    faults = {3 - i: CrashFaults(crashed=True) for i in range(crashes)}
    cluster = TopologySpec.cluster(4, 1).build(faults=faults)
    rid = cluster.submit(RawOperation("probe"))
    cluster.run(until=300)
    return rid in cluster.any_client.completed


def test_table4(run_once):
    result = run_once(table4)
    print("\n" + result.text)

    # network-overhead proxy: capped committee => near-flat cost growth
    assert result.values["gpbft_cost_growth"] < 1.5
    # and far below PBFT at the same size
    assert result.values["gpbft_vs_pbft_cost"] < 0.25

    # adversary tolerance: < 33.3% endorsers (f=1 of 4 ok, 2 of 4 not)
    assert _commits_with_crashes(1)
    assert not _commits_with_crashes(2)
