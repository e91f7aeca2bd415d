"""Determinism rules (GPB001, GPB003, GPB004).

Every simulation result in this repository must be a pure function of
its :class:`~repro.common.rng.DeterministicRNG` seed and configuration:
the sweep cache, the schedule explorer's replay fingerprints, and the
paper-figure pipelines all assume bit-identical reruns.  These rules
reject the constructs that historically break that property, in one
function and -- through :mod:`repro.analysis.dataflow` -- across calls.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dataflow import (
    Taint,
    ambient_kind,
    is_rng_expression,
    propagate,
    rng_returning_functions,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Module,
    Project,
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


#: Packages whose code runs inside the simulation (results must be a
#: pure function of seed + config).  Telemetry layers (`experiments`,
#: `obs`) and the entropy-sanctioned `crypto` package are deliberately
#: absent.
_SIM_PACKAGES = (
    "pbft", "core", "net", "chain", "workloads", "sybil", "geo",
    "baselines", "verify", "metrics", "common", "codec",
)


class AmbientSourceRule(Rule):
    """Runs must not read the wall clock or ambient entropy, directly or
    through a call chain.

    A run that depends on when it executed, or on process-global
    entropy, silently poisons the sweep result cache and breaks
    schedule-replay fingerprints.  Three arms:

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
    * **transitive reach** -- taint is seeded at every function whose
      body makes one of those calls (suppressed or not -- an allowed
      telemetry read still taints its callers) and propagated backwards
      over statically-resolved call edges; any function in a simulation
      package (``pbft``/``core``/``net``/``chain``/``workloads``/
      ``sybil``/``geo``/``baselines``/``verify``/``metrics``/``common``/
      ``codec``) that can reach a source it does not contain itself is
      flagged.  The finding anchors at the call site that enters the
      tainted chain and names the root source, so the fix (plumb the
      simulator clock / a forked stream through) is one hop away.
      Dynamic-dispatch edges are excluded from propagation: "every
      method named ``run``" would drown the signal in name collisions
      (a documented under-approximation).
    """

    rule_id = "GPB001"
    title = "no wall-clock time or ambient randomness, directly or reached from simulation code"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag direct source calls, then sim-package calls whose static
        call chain reaches one."""
        graph = project.callgraph()
        direct: dict[str, Taint] = {}
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if in_package(module, "crypto"):
                continue
            rng_wrapper = rel.endswith("/rng.py")
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                kind = ambient_kind(name)
                if not kind:
                    continue
                if kind == "clock":
                    yield self.finding(
                        module, node,
                        f"wall-clock call {name}() makes runs "
                        "time-dependent; use the simulator clock",
                    )
                elif not rng_wrapper:
                    yield self.finding(
                        module, node,
                        f"ambient randomness {name}() bypasses the seeded "
                        "DeterministicRNG tree; fork a labelled stream "
                        "instead",
                    )
                if not rng_wrapper:
                    # suppressed or not, a source read taints its callers
                    qual = graph.enclosing_function(module, node)
                    if qual is not None and qual not in direct:
                        direct[qual] = Taint(
                            source=qual, reason=f"{name}()", depth=0)
        tainted = propagate(graph, direct)
        for qual in sorted(tainted):
            if qual in direct:
                continue  # the direct read is the finding there
            module = project.modules[graph.functions[qual].module]
            if not in_package(module, *_SIM_PACKAGES):
                continue
            # the shallowest chain, then the earliest call site, so the
            # anchor is stable across runs
            edge = min(
                (e for e in graph.callees(qual)
                 if not e.dynamic and e.callee in tainted),
                key=lambda e: (tainted[e.callee].depth, e.lineno, e.col))
            taint = tainted[edge.callee]
            yield self.finding(
                module, edge.call,
                f"call to {edge.callee.rsplit('::', 1)[-1]}() reaches "
                f"{taint.reason} (defined in {taint.source.split('::')[0]}) "
                f"{taint.depth + 1} call(s) deep; plumb the simulator "
                "clock / a forked stream through instead",
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
    FIFO pool).  This arm is syntactic: values bound to sets earlier are
    out of scope, as are dict views passed to opaque functions.

    The shared-stream arm covers the case where the loop body looks
    harmless but the draws are not: ``DeterministicRNG.fork(label)``
    exists so each consumer owns an independent stream, and handing
    *one* stream to many consumers inside a ``for`` loop over an
    unordered collection makes every draw depend on the incidental
    iteration order.  It tracks variables bound from ``.fork(...)``,
    ``Random(...)``/``DeterministicRNG(...)``, or a factory function
    returning one (resolved through the call graph), and flags calls
    that pass such a variable inside that loop.  Fix by forking one
    labelled sub-stream per consumer, or sort the iteration.
    """

    rule_id = "GPB003"
    title = "no unordered set/dict-view iteration feeding ordered code or a shared RNG stream"

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

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag stream variables consumed inside unordered loops."""
        graph = project.callgraph()
        factories = rng_returning_functions(project, graph)
        for rel in sorted(project.modules):
            module = project.modules[rel]
            for func in ast.walk(module.tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                streams = {
                    node.targets[0].id for node in ast.walk(func)
                    if isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and is_rng_expression(node.value, factories, graph)
                }
                if not streams:
                    continue
                for loop in ast.walk(func):
                    if isinstance(loop, ast.For) and _is_unordered(loop.iter):
                        yield from self._flag_consumers(module, loop, streams)

    def _flag_consumers(self, module: Module, loop: ast.For,
                        streams: set[str]) -> Iterator[Finding]:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in streams:
                        yield self.finding(
                            module, node,
                            f"forked RNG stream '{arg.id}' is passed to "
                            f"{call_name(node) or 'a consumer'}() inside "
                            "unordered iteration; draws become "
                            "order-dependent -- fork one labelled "
                            "sub-stream per consumer",
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
