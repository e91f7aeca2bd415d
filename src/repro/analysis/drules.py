"""Determinism rules (GPB001, GPB003, GPB004).

Every simulation result in this repository must be a pure function of
its :class:`~repro.common.rng.DeterministicRNG` seed and configuration:
the sweep cache, the schedule explorer's replay fingerprints, and the
paper-figure pipelines all assume bit-identical reruns.  These rules
reject the constructs that historically break that property.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Module,
    Rule,
    call_name,
    dotted_name,
    in_package,
)

#: Consumers for which iteration order provably cannot matter.
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sum", "min", "max", "len", "any", "all", "set", "frozenset",
    "sorted", "Counter", "collections.Counter", "mean", "median",
    "statistics.mean", "statistics.median", "statistics.fmean",
})

#: Materializers that freeze the (possibly unstable) order into a result.
_ORDER_PRESERVING_CALLS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "zip",
    "chain", "itertools.chain", "next",
})


#: Wall-clock entry points whose results differ between reruns.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "date.today",
})

#: Ambient entropy sources that bypass the seeded RNG tree.
_AMBIENT_RANDOM_PREFIXES = ("random.", "np.random.", "numpy.random.")
_AMBIENT_RANDOM_CALLS = frozenset({
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
    "uuid.uuid1",
    "uuid.uuid4",
})


def _ambient_kind(name: str) -> str:
    """``"clock"`` or ``"entropy"`` when the callee *name* is an ambient
    source, else ``""``."""
    if name in _WALL_CLOCK_CALLS:
        return "clock"
    if name in _AMBIENT_RANDOM_CALLS or name.startswith(_AMBIENT_RANDOM_PREFIXES):
        return "entropy"
    return ""


class AmbientSourceRule(Rule):
    """Runs must not read the wall clock or ambient entropy.

    A run that depends on when it executed, or on process-global
    entropy, silently poisons the sweep result cache and breaks
    schedule-replay fingerprints.  Two arms:

    * **wall clock** -- calls to ``time.time()``, ``time.monotonic()``,
      ``time.perf_counter()`` (and their ``_ns`` variants) or
      ``datetime.now()/utcnow()/today()``.  Simulated components must
      take time from the discrete-event simulator's clock; telemetry
      that genuinely needs wall time belongs in the CLI layer behind an
      explicit suppression.  The ``crypto`` package is exempt (key
      generation may mix in wall time without affecting simulated
      behaviour).
    * **ambient entropy** -- module-level ``random.*``,
      ``numpy.random.*``, ``os.urandom``, ``secrets.*`` and
      ``uuid.uuid1/uuid4`` draw from ambient process state, so two runs
      with the same seed diverge.  Every stochastic component takes a
      :class:`repro.common.rng.DeterministicRNG` (or a stream forked
      from one) instead; the wrapper module itself (``rng.py``) and the
      ``crypto`` package are the only places allowed to touch raw
      entropy.

    Both arms flag every read, wherever it sits, so each one needs a
    reviewed inline allow; a simulation helper cannot start reading
    the clock without one.
    """

    rule_id = "GPB001"
    title = "no wall-clock time or ambient randomness"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag wall-clock and ambient-entropy calls."""
        if in_package(module, "crypto"):
            return
        rng_wrapper = module.rel.endswith("/rng.py")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            kind = _ambient_kind(name)
            if kind == "clock":
                yield self.finding(
                    module, node,
                    f"wall-clock call {name}() makes runs "
                    "time-dependent; use the simulator clock",
                )
            elif kind and not rng_wrapper:
                yield self.finding(
                    module, node,
                    f"ambient randomness {name}() bypasses the seeded "
                    "DeterministicRNG tree; fork a labelled stream "
                    "instead",
                )


def _is_unordered(node: ast.AST) -> str:
    """Describe *node* when it is an unordered expression, else ``""``.

    A set literal or comprehension, a ``set(...)``/``frozenset(...)``
    call, or an argument-less ``.values()``/``.keys()`` view.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and not node.args
                and func.attr in ("values", "keys")):
            return f"{dotted_name(func.value) or '<expr>'}.{func.attr}()"
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    return ""


class UnorderedIterationRule(Rule):
    """No order-sensitive iteration over sets or dict views.

    Iterating a ``set`` expression, or materializing ``.values()`` /
    ``.keys()`` through ``list()``/``tuple()``/``iter()``/``for``/a list
    comprehension, bakes an incidental order into downstream consensus
    or metrics computations (float summation order, batch serving order,
    "first element" selection).  The construct is allowed when it feeds
    a provably order-insensitive consumer (``sum``/``min``/``max``/
    ``len``/``any``/``all``/``set``/``sorted``/``Counter``/``mean``).
    Fix by sorting with an explicit total key, or suppress with a
    justification when the insertion order *is* the contract (e.g. a
    FIFO pool).  The rule is syntactic: values bound to sets earlier are
    out of scope, as are dict views passed to opaque functions.
    """

    rule_id = "GPB003"
    title = "no unordered set/dict-view iteration feeding ordered code"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag unsorted iteration over syntactic set/dict-view values."""
        for node in ast.walk(module.tree):
            described = _is_unordered(node)
            if described and self._is_order_sensitive(module, node):
                yield self.finding(
                    module, node,
                    f"iteration order of {described} is not a stable "
                    "contract; sort with an explicit key or justify a "
                    "suppression",
                )

    def _is_order_sensitive(self, module: Module, node: ast.AST) -> bool:
        """True when *node* is consumed in an order-sensitive position."""
        parent = module.parent_map().get(node)
        if parent is None:
            return False
        # direct loop iteration: the body may be order-sensitive
        if isinstance(parent, ast.For) and parent.iter is node:
            return True
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return self._comprehension_is_ordered(module, parent)
        if isinstance(parent, ast.Starred):
            return True
        if isinstance(parent, ast.Call) and node in parent.args:
            name = call_name(parent)
            if name in _ORDER_PRESERVING_CALLS:
                return True
            return False  # insensitive or opaque callee: out of scope
        return False

    @staticmethod
    def _comprehension_is_ordered(module: Module, comp: ast.comprehension) -> bool:
        """Whether the comprehension owning *comp* produces ordered output
        that is not immediately consumed order-insensitively."""
        owner = module.parent_map().get(comp)
        if isinstance(owner, ast.SetComp):
            return False  # a set result forgets the order again
        if isinstance(owner, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            consumer = module.parent_map().get(owner)
            if (isinstance(consumer, ast.Call) and owner in consumer.args
                    and call_name(consumer) in _ORDER_INSENSITIVE_CALLS):
                return False
            return True
        return False


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
    yield AmbientSourceRule()
    yield UnorderedIterationRule()
    yield FloatEqualityRule()
