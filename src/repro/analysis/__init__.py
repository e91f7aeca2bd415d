"""The determinism & protocol-safety static analyzer.

``python -m repro.analysis src/`` (``make lint``) runs four AST-based
rules, one per bug class, that reject float equality on coordinates and
latencies, inline quorum and fault-bound arithmetic, broad ``except``
in protocol hot paths, and mutable default arguments.  The event-kind
vocabulary, bounded memory and a run's independence of its process are
runtime facts, checked by tier-1 tests that run the program
(``tests/test_recorded_kinds.py``, ``tests/test_bounded_memory.py``,
``tests/test_determinism.py``).  A
finding is silenced only by a ``# gpb: allow`` comment with a reason;
an allow that silences nothing is reported as stale.  It is the
*static* half of the verification story whose *runtime* half is
:mod:`repro.verify`; see ``docs/static-analysis.md`` for the catalog
and the allow syntax.
"""

from repro.analysis.analyzer import all_rules, analyze
from repro.analysis.findings import Finding

__all__ = [
    "Finding",
    "all_rules",
    "analyze",
]
