"""Taint-style dataflow over the call graph.

Three value classes matter for reproducibility (docs/static-analysis.md
"The dataflow engine"):

* **ambient values** -- wall-clock reads and ambient randomness.  A
  function *exhibits* the class when its body contains one of the
  GPB001 source calls (:func:`ambient_kind`); the class then propagates
  backwards to every static caller that can reach an exhibitor
  (:func:`propagate`), which is how GPB001's transitive arm closes the
  intraprocedural gap ("a helper two frames deep calls ``time.time()``").
* **forked RNG streams** -- values produced by ``rng.fork(...)`` /
  ``random.Random(...)`` / ``DeterministicRNG(...)``, including through
  factory helpers that *return* such a value
  (:func:`rng_returning_functions` runs that fixpoint).  GPB003's
  shared-stream arm uses this to recognize a stream variable no matter
  how it was minted.
* **hot-path collections** -- attributes initialized to ``list``/
  ``deque``/``dict`` containers (:func:`collection_attributes`); GPB015
  combines them with call-graph reachability from the message-handler
  entry points.

Source tracking runs over statically-resolved edges only (the graph's
``callers`` index): taint through "every method with this name" would
flood it with name-collision noise, while reachability questions
(GPB015) walk the dynamic edges too.  All fixpoints are worklist-based
and cycle-safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.callgraph import CallGraph
from repro.analysis.rules import Module, Project, call_name

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


def ambient_kind(name: str) -> str:
    """``"clock"`` or ``"entropy"`` when the callee *name* is an ambient
    source, else ``""``."""
    if name in _WALL_CLOCK_CALLS:
        return "clock"
    if name in _AMBIENT_RANDOM_CALLS or name.startswith(_AMBIENT_RANDOM_PREFIXES):
        return "entropy"
    return ""


@dataclass(frozen=True, slots=True)
class Taint:
    """Why a function carries a value class.

    Attributes:
        source: qualified name of the function that exhibits the class
            directly (the root of the taint chain).
        reason: human description of the root cause, e.g.
            ``"time.time()"``.
        depth: call-chain distance from the exhibitor (0 = direct).
    """

    source: str
    reason: str
    depth: int


def propagate(graph: CallGraph, direct: dict[str, Taint]) -> dict[str, Taint]:
    """Close *direct* backwards over static call edges (callee -> callers).

    Breadth-first over :attr:`CallGraph.callers`, so each function
    records the *shortest* chain to an exhibitor and recursion cycles
    terminate.
    """
    tainted: dict[str, Taint] = dict(direct)
    frontier = sorted(direct)
    while frontier:
        nxt: list[str] = []
        for current in frontier:
            taint = tainted[current]
            for edge in graph.callers.get(current, ()):
                if edge.caller not in tainted:
                    tainted[edge.caller] = Taint(
                        source=taint.source, reason=taint.reason,
                        depth=taint.depth + 1)
                    nxt.append(edge.caller)
        frontier = sorted(nxt)
    return tainted


#: Constructors whose results are forkable/forked RNG streams.
_RNG_CONSTRUCTORS = frozenset({"Random", "DeterministicRNG"})


def is_rng_expression(node: ast.AST, rng_factories: set[str],
                      graph: CallGraph) -> bool:
    """Whether *node* evaluates to a forked/constructed RNG stream.

    True for ``<expr>.fork(...)`` calls, ``Random(...)`` /
    ``DeterministicRNG(...)`` constructions, and calls statically
    resolved to a function in *rng_factories* (a qual set from
    :func:`rng_returning_functions`).
    """
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    terminal = name.rsplit(".", 1)[-1] if name else ""
    if terminal == "fork" or terminal in _RNG_CONSTRUCTORS:
        return True
    return any(edge.call is node for factory in rng_factories
               for edge in graph.callers.get(factory, ()))


def rng_returning_functions(project: Project, graph: CallGraph) -> set[str]:
    """Fixpoint of functions whose return value is an RNG stream.

    Round 0 picks up functions returning a ``fork``/constructor
    expression directly; later rounds add wrappers returning a call to
    an already-known factory, until nothing changes.
    """
    returns: dict[str, list[ast.expr]] = {}
    for qual, info in graph.functions.items():
        module = project.modules[info.module]
        returns[qual] = [
            node.value for node in ast.walk(info.node)
            if isinstance(node, ast.Return) and node.value is not None
            and graph.enclosing_function(module, node) == qual]
    factories: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual, values in returns.items():
            if qual not in factories and any(
                    is_rng_expression(value, factories, graph)
                    for value in values):
                factories.add(qual)
                changed = True
    return factories


#: Container constructors that make an attribute a growth candidate.
_COLLECTION_FACTORIES = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
})


def collection_attributes(cls: ast.ClassDef) -> set[str]:
    """Attribute names initialized to plain containers anywhere in *cls*.

    Matches ``self.x = []`` / ``self.x = deque()`` / annotated variants
    -- the shapes an append/extend can grow without bound.  Attributes
    holding project objects (``self.ledger = Ledger(...)``) are excluded
    so method calls that merely *look* like ``list.append`` don't count,
    and so is any attribute ever built as ``deque(maxlen=...)``: a ring
    displaces instead of growing, and deleting its ``maxlen`` turns it
    back into a plain container.
    """
    names: set[str] = set()
    rings: set[str] = set()
    for node in ast.walk(cls):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        value = getattr(node, "value", None)
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self" and value is not None):
            continue
        if (isinstance(value, ast.Call)
                and call_name(value).rsplit(".", 1)[-1] == "deque"
                and any(kw.arg == "maxlen" for kw in value.keywords)):
            rings.add(target.attr)
        elif _is_container(value):
            names.add(target.attr)
    return names - rings


def _is_container(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        terminal = call_name(node).rsplit(".", 1)[-1]
        return terminal in _COLLECTION_FACTORIES
    return False


#: Call attributes / statements accepted as evidence that an attribute
#: is pruned, drained, or capacity-guarded somewhere in its class.
_SHRINK_METHODS = frozenset({"pop", "popleft", "popitem", "clear", "remove"})


def has_bound_evidence(cls: ast.ClassDef, attr: str) -> bool:
    """Whether *cls* visibly bounds the growth of ``self.<attr>``.

    Evidence, scanned across every method of the class:

    * a shrink call: ``self.attr.pop()/popleft()/clear()/remove()``;
    * a ``del self.attr[...]`` slice/index deletion;
    * a re-slicing assignment ``self.attr = self.attr[...]``;
    * a comparison involving ``len(self.attr)`` (a capacity guard);
    * a drain-reset -- ``self.attr = []`` (or tuple-unpacked
      equivalent) in any method other than ``__init__``, where the
      same shape is just the initializer.
    """
    for method in ast.walk(cls):
        if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name != "__init__"
                and _has_drain_reset(method, attr)):
            return True
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SHRINK_METHODS
                    and _is_self_attr(func.value, attr)):
                return True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and _is_self_attr(target.value, attr)):
                    return True
        elif isinstance(node, ast.Assign):
            if any(_is_self_attr(t, attr) for t in node.targets) and any(
                    _is_self_attr(sub.value, attr)
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Subscript)):
                return True
        elif isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if (isinstance(operand, ast.Call)
                        and call_name(operand) == "len"
                        and operand.args
                        and _is_self_attr(operand.args[0], attr)):
                    return True
    return False


def _has_drain_reset(method: ast.AST, attr: str) -> bool:
    """A fresh-container assignment to ``self.<attr>`` inside *method*.

    Handles both ``self.attr = []`` and the tuple-unpacked
    ``self.a, self.b = [], []`` drain idiom.
    """
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if _is_self_attr(target, attr) and _is_container(node.value):
                return True
            if (isinstance(target, ast.Tuple)
                    and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)):
                for t, v in zip(target.elts, node.value.elts):
                    if _is_self_attr(t, attr) and _is_container(v):
                        return True
    return False


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def classes_of(module: Module) -> Iterator[ast.ClassDef]:
    """Top-level class definitions of *module*."""
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            yield node
