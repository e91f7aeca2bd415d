"""Determinism rules (GPB004).

Every simulation result in this repository must be a pure function of
its :class:`~repro.common.rng.DeterministicRNG` seed and configuration:
the sweep cache, the schedule explorer's replay fingerprints, and the
paper-figure pipelines all assume bit-identical reruns.  Whether a run
depends on its process (hash seed, global ``random``, wall clock) is a
fact of the run, so ``tests/test_determinism.py`` runs the program in
two differing processes and compares; the rule here rejects a
construct that is wrong on its line alone.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Module, Rule, dotted_name

#: Identifier shapes that denote coordinates or time/latency quantities.
_FLOAT_NAME_EXACT = frozenset({"lat", "lng", "latitude", "longitude", "timestamp"})
_FLOAT_NAME_SUFFIXES = ("_s", "_ms", "_latency")
_FLOAT_NAME_SUBSTRINGS = ("latency",)


class FloatEqualityRule(Rule):
    """No ``==``/``!=`` on coordinates, latencies, or float literals.

    Exact float comparison on computed quantities (haversine distances,
    offset round-trips, latency aggregates, ``*_s`` durations) is either
    vacuously true for the one value it was tuned on or silently false
    after any reordering of arithmetic.  Compare with ``math.isclose``
    (or an explicit tolerance), or restructure sentinel checks as
    inequalities (``<= 0`` instead of ``== 0``).  Triggers when either
    side of an equality is a float literal, or is named like a
    coordinate/time quantity (``lat``, ``lng``, ``latitude``,
    ``longitude``, ``timestamp``, ``*latency*``, ``*_s``, ``*_ms``).
    """

    rule_id = "GPB004"
    title = "no float equality on coordinates or latencies"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag equality comparisons on float-like operands."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                why = self._float_like(operand)
                if why:
                    yield self.finding(
                        module, node,
                        f"float equality on {why}; use math.isclose or "
                        "an inequality",
                    )
                    break

    @staticmethod
    def _float_like(node: ast.AST) -> str:
        """Describe why *node* is float-like, or ``""`` when it is not."""
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"the float literal {node.value!r}"
        name = dotted_name(node)
        terminal = name.rsplit(".", 1)[-1] if name else ""
        if not terminal:
            return ""
        lowered = terminal.lower()
        if (lowered in _FLOAT_NAME_EXACT
                or lowered.endswith(_FLOAT_NAME_SUFFIXES)
                or any(s in lowered for s in _FLOAT_NAME_SUBSTRINGS)):
            return f"'{name}' (coordinate/latency-named quantity)"
        return ""


def determinism_rules() -> Iterator[Rule]:
    """Instantiate the D-rule set in id order."""
    yield FloatEqualityRule()
