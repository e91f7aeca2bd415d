"""Interprocedural rules (GPB010-GPB015), built on the call graph.

Where the D/P/O rule sets inspect one function at a time, these rules
consult :mod:`repro.analysis.callgraph` and
:mod:`repro.analysis.dataflow` to follow values across function and
module boundaries: a wall-clock read two helpers deep, a forked RNG
stream handed out in set order, a committee size flowing into inline
quorum math, or an append chain rooted at a message handler.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.callgraph import CallEdge, CallGraph
from repro.analysis.dataflow import (
    ambient_sources,
    classes_of,
    collection_attributes,
    has_bound_evidence,
    is_rng_expression,
    propagate,
    rng_returning_functions,
)
from repro.analysis.findings import Finding
from repro.analysis.orules import _assign_target_names, _is_docstring, _vocabulary
from repro.analysis.prules import _is_f_like
from repro.analysis.rules import (
    Module,
    Project,
    Rule,
    call_name,
    dotted_name,
    in_package,
)

#: Packages whose code runs inside the simulation (results must be a
#: pure function of seed + config).  Telemetry layers (`experiments`,
#: `obs`) and the entropy-sanctioned `crypto` package are deliberately
#: absent.
_SIM_PACKAGES = (
    "pbft", "core", "net", "chain", "workloads", "sybil", "geo",
    "baselines", "verify", "metrics", "common", "codec",
)

#: Hot-path packages whose handler chains GPB015 polices.
_HANDLER_PACKAGES = ("pbft", "core", "net", "chain")

#: Function names treated as message-handler chain entry points.
_HANDLER_ENTRY_NAMES = ("receive", "deliver")


def _short(qual: str) -> str:
    """Human-readable ``module::func`` -> ``func`` (keeps the class)."""
    return qual.rsplit("::", 1)[-1]


class TransitiveAmbientRule(Rule):
    """Simulation code must not reach wall-clock or ambient randomness,
    even transitively.

    GPB001/GPB002 flag a direct ``time.time()`` or ``random.random()``
    call; this rule closes their interprocedural gap.  It seeds taint at
    every function whose body reads the wall clock or ambient entropy
    (suppressed or not -- an allowed telemetry read still taints its
    callers), propagates the taint backwards over statically-resolved
    call edges, and flags any function in a simulation package
    (``pbft``/``core``/``net``/``chain``/``workloads``/``sybil``/``geo``/
    ``baselines``/``verify``/``metrics``/``common``/``codec``) that can
    reach a source it does not contain itself.  The finding anchors at
    the call site that enters the tainted chain and names the root
    source, so the fix (plumb the simulator clock / a forked stream
    through) is one hop away.  Dynamic-dispatch edges are excluded from
    propagation: "every method named ``run``" would drown the signal in
    name collisions (a documented under-approximation).
    """

    rule_id = "GPB010"
    title = "no transitive wall-clock/ambient-randomness reach from simulation code"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag sim-package calls whose static call chain hits a source."""
        graph = project.callgraph()
        direct = ambient_sources(project, graph)
        tainted = propagate(graph, direct, include_dynamic=False)
        for qual in sorted(tainted):
            if qual in direct:
                continue  # the direct read is GPB001/GPB002's finding
            info = graph.functions[qual]
            module = project.modules[info.module]
            if not in_package(module, *_SIM_PACKAGES):
                continue
            edge = self._anchor_edge(graph, tainted, qual)
            if edge is None:
                continue
            taint = tainted[edge.callee]
            yield self.finding(
                module, edge.call,
                f"call to {_short(edge.callee)}() reaches {taint.reason} "
                f"(defined in {taint.source.split('::')[0]}) "
                f"{taint.depth + 1} call(s) deep; plumb the simulator "
                "clock / a forked stream through instead",
            )

    @staticmethod
    def _anchor_edge(graph: CallGraph, tainted: dict, qual: str) -> CallEdge | None:
        """The call edge that takes *qual* into the tainted region.

        Prefers the shallowest chain, then the earliest call site, so
        the anchor is stable across runs.
        """
        best: CallEdge | None = None
        for edge in graph.callees(qual):
            if edge.dynamic or edge.callee not in tainted:
                continue
            if best is None or (
                    (tainted[edge.callee].depth, edge.lineno, edge.col)
                    < (tainted[best.callee].depth, best.lineno, best.col)):
                best = edge
        return best


class SharedStreamRule(Rule):
    """A forked RNG stream must not be drained in unordered iteration.

    ``DeterministicRNG.fork(label)`` exists so each consumer owns an
    independent stream; handing *one* stream to many consumers inside a
    ``for`` loop over a ``set`` / ``dict.values()`` / ``dict.keys()``
    makes every draw depend on the incidental iteration order -- the
    per-consumer sequences change between runs even though each draw is
    individually "deterministic".  The rule tracks variables bound from
    ``.fork(...)``, ``Random(...)``/``DeterministicRNG(...)``, or a
    factory function returning one (resolved through the call graph),
    and flags calls that pass such a variable while iterating an
    unordered collection.  Fix by forking one labelled sub-stream per
    consumer, or sort the iteration with an explicit key.
    """

    rule_id = "GPB011"
    title = "no forked RNG stream shared across unordered-iteration consumers"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag stream variables consumed inside unordered loops."""
        graph = project.callgraph()
        factories = rng_returning_functions(project, graph)
        for rel in sorted(project.modules):
            yield from self._check_module(project.modules[rel], graph, factories)

    def _check_module(self, module: Module, graph: CallGraph,
                      factories: set[str]) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            streams = self._stream_vars(module, graph, factories, func)
            if not streams:
                continue
            for loop in ast.walk(func):
                if (isinstance(loop, ast.For)
                        and self._is_unordered(loop.iter)):
                    yield from self._flag_consumers(module, loop, streams)

    @staticmethod
    def _stream_vars(module: Module, graph: CallGraph, factories: set[str],
                     func: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and is_rng_expression(node.value, factories, graph, module)):
                names.add(node.targets[0].id)
        return names

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and not node.args
                    and func.attr in ("values", "keys")):
                return True
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
        return False

    def _flag_consumers(self, module: Module, loop: ast.For,
                        streams: set[str]) -> Iterator[Finding]:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                passed = [a.id for a in node.args
                          if isinstance(a, ast.Name) and a.id in streams]
                for name in passed:
                    yield self.finding(
                        module, node,
                        f"forked RNG stream '{name}' is passed to "
                        f"{call_name(node) or 'a consumer'}() inside "
                        "unordered iteration; draws become order-dependent "
                        "-- fork one labelled sub-stream per consumer",
                    )


class DecodeBoundsRule(Rule):
    """Wire decoders must bounds-check before indexing into the buffer.

    Python slices do not raise on overrun: ``data[start:start + 4]`` on
    a truncated frame silently yields fewer bytes, and
    ``int.from_bytes`` happily mis-parses the remainder into a plausible
    length -- the classic silent-misparse path the codec must never
    reintroduce.  In any function whose name starts with ``decode``,
    subscripting a parameter is flagged unless an earlier (or same-line)
    comparison involving ``len(<param>)`` guards the access.  The
    length-checked :class:`repro.codec.primitives.Record` (``unpack``
    for a whole frame, ``unpack_head`` for a record followed by more)
    is the preferred fix: it raises ``ValidationError`` with the exact
    shortfall instead of mis-parsing.
    """

    rule_id = "GPB012"
    title = "no unchecked buffer indexing in wire decoders"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag param subscripts in decode* functions before a len check."""
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith("decode"):
                continue
            params = {a.arg for a in (*func.args.posonlyargs, *func.args.args,
                                      *func.args.kwonlyargs)}
            checks = self._len_check_lines(func, params)
            for node in ast.walk(func):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in params):
                    param = node.value.id
                    guarded = any(line <= node.lineno
                                  for line in checks.get(param, ()))
                    if not guarded:
                        yield self.finding(
                            module, node,
                            f"'{param}' is indexed before any len({param}) "
                            "bounds check; a truncated frame mis-parses "
                            "silently -- unpack it with a length-checked "
                            "Record (e.g. Record.unpack_head) or check first",
                        )

    @staticmethod
    def _len_check_lines(func: ast.AST, params: set[str]) -> dict[str, list[int]]:
        """param -> line numbers of comparisons involving ``len(param)``."""
        checks: dict[str, list[int]] = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                for sub in ast.walk(operand):
                    if (isinstance(sub, ast.Call) and call_name(sub) == "len"
                            and sub.args and isinstance(sub.args[0], ast.Name)
                            and sub.args[0].id in params):
                        checks.setdefault(sub.args[0].id, []).append(node.lineno)
        return checks


#: Shape of an event-kind string: lowercase dotted words.
_KIND_SHAPE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _declared_message_kinds(project: Project) -> set[str]:
    """Kinds declared by message classes across the project.

    Two declaration shapes count: a ``kind = "..."`` class attribute and
    a ``kind()`` method/property returning a string literal.  These are
    the *definition sites* of the wire/dispatch namespace, so literals
    matching them are vocabulary, not drift.
    """
    kinds: set[str] = set()
    for rel in sorted(project.modules):
        for node in ast.walk(project.modules[rel].tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "kind"):
                for ret in ast.walk(node):
                    if (isinstance(ret, ast.Return)
                            and isinstance(ret.value, ast.Constant)
                            and isinstance(ret.value.value, str)):
                        kinds.add(ret.value.value)
    return kinds


def _wire_kinds(project: Project) -> set[str]:
    """Wire kinds registered in any ``WIRE_MESSAGES`` literal."""
    from repro.analysis.prules import CodecHandlerCoverageRule
    kinds: set[str] = set()
    for rel in sorted(project.modules):
        registry = CodecHandlerCoverageRule._find_registry(project.modules[rel])
        if registry is None:
            continue
        for key in registry.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                kinds.add(key.value)
    return kinds


class VocabularyDriftRule(Rule):
    """Kind-shaped literals must match one of the known vocabularies.

    GPB009 catches a raw literal that *matches* an ``EV_*`` constant;
    this rule catches the more dangerous near-miss: a dotted lowercase
    literal in a known kind family (``tx.*``, ``pbft.*``, ...) that
    matches *nothing* -- a typo'd or stale kind that records events
    nobody queries, dispatches messages nobody sends, or queries events
    nobody records.  Three vocabularies are legitimate and read straight
    from the AST: the ``EV_*`` event kinds in ``repro.common.eventlog``,
    the wire kinds keyed in ``WIRE_MESSAGES``, and message-class kind
    declarations (a ``kind`` attribute or property returning a string
    literal).  Families are the first dotted segment of every known
    kind, so new families extend coverage automatically.  Exemptions
    mirror GPB009 -- eventlog modules, the ``obs``/``codec`` packages,
    docstrings, ``kind =`` assignments.
    """

    rule_id = "GPB013"
    title = "no kind-shaped literals drifting from the known vocabularies"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag family-shaped literals absent from every vocabulary."""
        known = set(_vocabulary(project))
        known |= _wire_kinds(project)
        known |= _declared_message_kinds(project)
        families = {kind.split(".", 1)[0] for kind in known}
        if not families:
            return
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if rel.endswith("eventlog.py") or in_package(
                    module, "obs", "codec"):
                continue
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and _KIND_SHAPE.match(node.value)
                        and node.value.split(".", 1)[0] in families
                        and node.value not in known
                        and not _is_docstring(module, node)
                        and "kind" not in set(_assign_target_names(module, node))):
                    yield self.finding(
                        module, node,
                        f"kind-shaped literal {node.value!r} matches no "
                        "EV_* constant, wire kind, or declared message "
                        "kind; fix the typo or register the kind",
                    )


class QuorumFlowRule(Rule):
    """Committee sizes and fault bounds must flow through
    ``repro.common.quorum`` -- even across call boundaries.

    Two arms, both exempting ``quorum.py`` itself:

    * **inline max-faulty arithmetic**: any non-constant
      ``(n - 1) // 3`` expression re-derives the fault bound by hand;
      use :func:`repro.common.quorum.max_faulty` (raises for ``n < 4``)
      or :func:`repro.common.quorum.tolerated_faults` (degenerate
      committees allowed).
    * **interprocedural ``k*p + 1``**: a function computing
      ``2*p + 1`` / ``3*p + 1`` on one of its *parameters* escapes
      GPB005 (the parameter is not named ``f``), but if any resolved
      call site passes an f-bound into that parameter, the arithmetic
      is quorum math in disguise; the call graph supplies the caller so
      the finding can name the flow.
    """

    rule_id = "GPB014"
    title = "no inline quorum/fault-bound arithmetic, interprocedurally"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag max-faulty shapes and parameter-flow quorum arithmetic."""
        graph = project.callgraph()
        by_callee = self._edges_by_callee(graph)
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if rel.endswith("/quorum.py") or rel == "quorum.py":
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.BinOp):
                    continue
                if self._is_max_faulty_shape(node):
                    yield self.finding(
                        module, node,
                        "inline fault-bound arithmetic ((n - 1) // 3); use "
                        "repro.common.quorum.max_faulty() or "
                        "tolerated_faults()",
                    )
                else:
                    yield from self._check_param_flow(
                        module, graph, by_callee, node)

    @staticmethod
    def _edges_by_callee(graph: CallGraph) -> dict[str, list[CallEdge]]:
        edges: dict[str, list[CallEdge]] = {}
        for caller in sorted(graph.edges):
            for edge in graph.edges[caller]:
                if not edge.dynamic:
                    edges.setdefault(edge.callee, []).append(edge)
        return edges

    @staticmethod
    def _is_max_faulty_shape(node: ast.BinOp) -> bool:
        """Match ``(<non-constant> - 1) // 3``."""
        return (isinstance(node.op, ast.FloorDiv)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 3
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Sub)
                and isinstance(node.left.right, ast.Constant)
                and node.left.right.value == 1
                and not isinstance(node.left.left, ast.Constant))

    def _check_param_flow(self, module: Module, graph: CallGraph,
                          by_callee: dict[str, list[CallEdge]],
                          node: ast.BinOp) -> Iterator[Finding]:
        param = self._quorum_param(node)
        if param is None or _is_f_like(param):
            return  # f-named operands are GPB005's finding already
        qual = graph.enclosing_function(module, node)
        if qual is None:
            return
        info = graph.functions[qual]
        if param.id not in info.params:
            return
        index = info.params.index(param.id)
        for edge in by_callee.get(qual, ()):
            arg = self._argument_for(edge, info.cls is not None, index,
                                     param.id)
            if arg is not None and _is_f_like(arg):
                yield self.finding(
                    module, node,
                    f"inline quorum arithmetic on parameter '{param.id}', "
                    f"which receives the fault bound from "
                    f"{_short(edge.caller)}() "
                    f"({edge.caller.split('::')[0]}:{edge.lineno}); use "
                    "repro.common.quorum.quorum_size()",
                )
                return

    @staticmethod
    def _quorum_param(node: ast.BinOp) -> ast.Name | None:
        """The ``p`` of a ``k*p + 1`` shape (k in {2, 3}), if any."""
        if not isinstance(node.op, ast.Add):
            return None
        for mult, one in ((node.left, node.right), (node.right, node.left)):
            if not (isinstance(one, ast.Constant) and one.value == 1):
                continue
            if not (isinstance(mult, ast.BinOp)
                    and isinstance(mult.op, ast.Mult)):
                continue
            for coeff, var in ((mult.left, mult.right),
                               (mult.right, mult.left)):
                if (isinstance(coeff, ast.Constant) and coeff.value in (2, 3)
                        and isinstance(var, ast.Name)):
                    return var
        return None

    @staticmethod
    def _argument_for(edge: CallEdge, is_method: bool, index: int,
                      name: str) -> ast.AST | None:
        """The caller expression bound to parameter *index* / *name*."""
        for keyword in edge.call.keywords:
            if keyword.arg == name:
                return keyword.value
        offset = 1 if is_method and isinstance(edge.call.func,
                                               ast.Attribute) else 0
        position = index - offset
        if 0 <= position < len(edge.call.args):
            return edge.call.args[position]
        return None


class UnboundedHandlerGrowthRule(Rule):
    """Collections grown inside message-handler chains need a visible
    bound.

    At 100k nodes, an ``append`` per message with no matching prune is
    an out-of-memory with a delay fuse.  The rule computes every
    function reachable (dynamic dispatch included -- over-approximation
    is the point) from a handler entry (``on_*``/``receive``/``deliver``
    in the ``pbft``/``core``/``net``/``chain`` packages), then flags
    ``self.<attr>.append/extend(...)`` inside that closure when *attr*
    is a plain container (initialized to a ``list``/``deque``/... in
    its class) and the class shows no bound evidence anywhere: a
    ``pop``/``popleft``/``clear``/``remove`` call, a ``del
    self.attr[...]``, a re-slicing assignment, or a ``len(self.attr)``
    capacity guard.  Collections that are legitimately append-only (the
    chain itself, executed-operation records) carry an inline allow
    naming that contract.
    """

    rule_id = "GPB015"
    title = "no unbounded collection growth in message-handler chains"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag evidence-free appends reachable from handler entries."""
        graph = project.callgraph()
        entries = [
            qual for qual, info in graph.functions.items()
            if (info.name.startswith("on_")
                or info.name in _HANDLER_ENTRY_NAMES)
            and in_package(project.modules[info.module], *_HANDLER_PACKAGES)
        ]
        reachable = graph.reachable_from(entries)
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if not in_package(module, *_HANDLER_PACKAGES):
                continue
            for cls in classes_of(module):
                yield from self._check_class(module, graph, reachable, cls)

    def _check_class(self, module: Module, graph: CallGraph,
                     reachable: set[str], cls: ast.ClassDef) -> Iterator[Finding]:
        containers = collection_attributes(cls)
        if not containers:
            return
        bounded: dict[str, bool] = {}
        for node in ast.walk(cls):
            attr = self._grown_attribute(node)
            if attr is None or attr not in containers:
                continue
            qual = graph.enclosing_function(module, node)
            if qual is None or qual not in reachable:
                continue
            if attr not in bounded:
                bounded[attr] = has_bound_evidence(cls, attr)
            if not bounded[attr]:
                yield self.finding(
                    module, node,
                    f"self.{attr} grows inside a message-handler chain "
                    f"with no visible bound in {cls.name}; cap it, prune "
                    "it, or justify the append-only contract",
                )

    @staticmethod
    def _grown_attribute(node: ast.AST) -> str | None:
        """The ``X`` of a ``self.X.append/extend(...)`` call, if any."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("append", "extend", "appendleft")
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"):
            return func.value.attr
        return None


def interprocedural_rules() -> list[Rule]:
    """Instantiate the I-rule set in id order."""
    return [
        TransitiveAmbientRule(),
        SharedStreamRule(),
        DecodeBoundsRule(),
        VocabularyDriftRule(),
        QuorumFlowRule(),
        UnboundedHandlerGrowthRule(),
    ]
