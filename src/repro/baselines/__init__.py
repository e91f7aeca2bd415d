"""Alternative consensus baselines for a *measured* Table IV.

The paper's Table IV compares G-PBFT against BFT/PBFT/dBFT/PoW/PoS/...
qualitatively (High/Low speed, scalability, overheads, tolerance).
This package implements executable models of the three mechanisms whose
behaviour differs most -- Nakamoto-style **PoW**, chain-based **PoS**,
and NEO-style **dBFT** -- over the same simulated network and
transaction workload as PBFT/G-PBFT, so the table's rows can be backed
by numbers:

* *speed* -- commit latency of a transaction (k-deep confirmation for
  the chain-based mechanisms, quorum execution for the BFT family);
* *scalability* -- how latency and traffic change with network size;
* *network overhead* -- bytes moved per committed transaction;
* *computing overhead* -- hash work expended per committed transaction
  (zero for everything but PoW);
* *adversary tolerance* -- the protocol parameter (1/3 replicas vs.
  hash-rate/stake majorities).

These are deliberately compact models: block-interval statistics,
leader election, fork resolution, and gossip costs -- enough to measure
the table's dimensions, not full reimplementations of Bitcoin/NEO.
"""

from repro.baselines.comparison import measured_table4

__all__ = [
    "measured_table4",
]
