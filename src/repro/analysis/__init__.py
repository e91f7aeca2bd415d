"""Analysis tools: the paper's closed-form models and the static analyzer.

Two kinds of *analysis* live here:

* :mod:`repro.analysis.models` -- closed-form latency/overhead models
  from the paper's theoretical analysis (section IV).  With processing
  rate *s* messages/second per node, a PBFT phase switch waits for a
  ~(2n/3) quorum, so a full consensus is O(n/s); a committee of *c*
  endorsers makes G-PBFT O(c/s) with predicted speedup n/c (IV-B) and
  traffic reduction c^2/n^2 (IV-C).  Compared against the simulator by
  ``benchmarks/test_bench_analysis.py`` and EXPERIMENTS.md.

* The **determinism & protocol-safety static analyzer** (``python -m
  repro.analysis src/``, ``make lint``): ten AST-based rules, one per
  bug class, that reject wall-clock/ambient-randomness reads, unordered
  iteration feeding ordered code, float equality on coordinates and
  latencies, inline quorum and fault-bound arithmetic, codec-registry
  entries without layouts or runtime handlers, broad ``except`` in
  protocol hot paths, mutable default arguments, raw or drifted
  event-kind literals, unchecked buffer indexing in decoders, and
  unbounded collection growth.  It is the *static* half of the verification story whose
  *runtime* half is :mod:`repro.verify`; see
  ``docs/static-analysis.md`` for the catalog and suppression syntax.
"""

from repro.analysis.analyzer import all_rules, analyze
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding

__all__ = [
    "Baseline",
    "Finding",
    "all_rules",
    "analyze",
]
