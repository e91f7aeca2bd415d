"""Vocabulary and bounded-growth rules (GPB009, GPB015).

The event-kind vocabulary lives as ``EV_*`` constants in
``repro/common/eventlog.py``; GPB009 reads those assignments (and the
other kind vocabularies, ``WIRE_MESSAGES`` keys among them) straight
from the AST and flags raw or drifted kind literals anywhere else, so a
typo'd kind cannot silently split the vocabulary.
GPB015 polices the memory contract: a collection grown per message or
per event needs a visible bound.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Module, Project, Rule, call_name, in_package


def _assignments(module: Module) -> Iterator[tuple[str, ast.AST | None]]:
    """(name, value) of every module-level ``NAME = value`` assignment,
    plain or annotated."""
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if isinstance(target, ast.Name):
            yield target.id, node.value


def _vocabulary(project: Project) -> dict[str, str]:
    """kind literal -> constant name, read from every eventlog module.

    A module participates when its path ends with ``eventlog.py``; the
    constants are module-level ``EV_UPPER = "literal"`` assignments
    (plain or annotated).
    """
    vocab: dict[str, str] = {}
    for rel in sorted(project.modules):
        if not rel.endswith("eventlog.py"):
            continue
        for name, value in _assignments(project.modules[rel]):
            if (name.startswith("EV_") and name.isupper()
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                vocab[value.value] = name
    return vocab


def _assign_target_names(module: Module, node: ast.AST) -> Iterator[str]:
    """Names assigned by the statement directly enclosing *node*."""
    for parent in module.parents_of(node):
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                if isinstance(target, ast.Name):
                    yield target.id
            return
        if isinstance(parent, ast.AnnAssign):
            if isinstance(parent.target, ast.Name):
                yield parent.target.id
            return
        if isinstance(parent, ast.stmt):
            return


def _is_docstring(module: Module, node: ast.Constant) -> bool:
    """True when *node* is a bare string expression (docstring)."""
    parents = module.parent_map()
    return isinstance(parents.get(node), ast.Expr)


#: Shape of an event-kind string: lowercase dotted words.
_KIND_SHAPE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _declared_message_kinds(project: Project) -> set[str]:
    """Kinds declared by message classes across the project.

    A ``kind()`` method or property returning a string literal is a
    *definition site* of the wire/dispatch namespace, so literals
    matching it are vocabulary, not drift.
    """
    return {
        ret.value.value
        for module in project.modules.values()
        for func in ast.walk(module.tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.name == "kind"
        for ret in ast.walk(func)
        if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Constant)
        and isinstance(ret.value.value, str)
    }


def _wire_kinds(project: Project) -> set[str]:
    """Wire kinds keyed in any module-level ``WIRE_MESSAGES`` literal."""
    kinds: set[str] = set()
    for rel in sorted(project.modules):
        for name, value in _assignments(project.modules[rel]):
            if name == "WIRE_MESSAGES" and isinstance(value, ast.Dict):
                kinds.update(key.value for key in value.keys
                             if isinstance(key, ast.Constant)
                             and isinstance(key.value, str))
    return kinds


class EventVocabularyRule(Rule):
    """Event kinds must come from the ``EV_*`` vocabulary, and
    kind-shaped literals must match a known kind.

    The event-kind vocabulary is the set of ``EV_*`` string constants
    in ``repro/common/eventlog.py``.  Writing one of those strings as
    a raw literal anywhere else re-spells the vocabulary by hand: the
    constant and the literal can drift apart silently (a typo'd kind
    records events nobody queries), so every consumer must import the
    constant instead.

    The drift arm catches the more dangerous near-miss: a dotted
    lowercase literal in a known kind family (``tx.*``, ``pbft.*``,
    ...) that matches *nothing* -- a typo'd or stale kind that records
    events nobody queries, dispatches messages nobody sends, or queries
    events nobody records.  Three vocabularies are legitimate and read
    straight from the AST: the ``EV_*`` event kinds, the wire kinds
    keyed in ``WIRE_MESSAGES``, and message-class kind declarations (a
    ``kind()`` method or property returning a string literal).
    Families are the first dotted segment of every known kind, so new
    families extend coverage automatically.

    Both arms share one exemption list: eventlog modules themselves
    (the single definition site), the ``obs``/``codec`` packages (the
    codec names wire kinds, some of which double as event kinds; the
    two such ``WIRE_MESSAGES`` keys carry inline allows), docstrings,
    and ``kind = ...`` class attributes (message-class wire-kind
    declarations).
    """

    rule_id = "GPB009"
    title = "event kinds must use the shared EV_* vocabulary; no kind-shaped literal may drift from it"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag raw vocabulary literals and family-shaped unknown kinds."""
        vocab = _vocabulary(project)
        known = (set(vocab) | _wire_kinds(project)
                 | _declared_message_kinds(project))
        families = {kind.split(".", 1)[0] for kind in known}
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if rel.endswith("eventlog.py") or in_package(module, "obs", "codec"):
                continue
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    continue
                kind = node.value
                if kind in vocab:
                    message = (f"raw event-kind literal {kind!r}; import "
                               f"{vocab[kind]} from repro.common.eventlog")
                elif (_KIND_SHAPE.match(kind)
                      and kind.split(".", 1)[0] in families
                      and kind not in known):
                    message = (f"kind-shaped literal {kind!r} matches no "
                               "EV_* constant, wire kind, or declared "
                               "message kind; fix the typo or register "
                               "the kind")
                else:
                    continue
                if (not _is_docstring(module, node)
                        and "kind" not in _assign_target_names(module, node)):
                    yield self.finding(module, node, message)

    def judges_allows(self, project: Project) -> bool:
        """Only on a run over the whole package holding ``eventlog.py``:
        the known kinds come from across it, so on part of it a finding
        the whole tree has can vanish and its allow look stale."""
        analyzed = {module.path.resolve() for module in project.modules.values()}
        roots = {_package_root(module.path) for rel, module
                 in project.modules.items() if rel.endswith("eventlog.py")}
        return bool(roots) and all(path.resolve() in analyzed
                                   for root in roots for path in root.rglob("*.py"))


def _package_root(path: Path) -> Path:
    """Outermost package directory holding *path*, else its directory."""
    root = path.resolve().parent
    while (root.parent / "__init__.py").is_file():
        root = root.parent
    return root


#: Container constructors that make an attribute a growth candidate.
_COLLECTION_FACTORIES = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
})


def _collection_attributes(cls: ast.ClassDef) -> set[str]:
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


def _has_bound_evidence(cls: ast.ClassDef, attr: str) -> bool:
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


#: ``self.<attr>.<method>(...)`` calls that grow a collection.
_GROW_METHODS = frozenset({"append", "appendleft", "extend", "extendleft"})

#: Hot-path packages whose classes GPB015 polices.
_PROTOCOL_PACKAGES = ("pbft", "core", "net", "chain")

#: GPB015's finding message per scope.
_PROTOCOL_GROWTH = (
    "self.{attr} grows with no visible bound in protocol class {cls}; "
    "cap it, prune it, or justify the append-only contract")
_OBS_GROWTH = (
    "self.{attr} grows without a visible bound in observability class "
    "{cls}; ring it (deque(maxlen=...)), prune it, or justify the "
    "capture-scoped contract")


def _grown_attribute(node: ast.AST) -> str | None:
    """The ``X`` of a ``self.X.append/extend(...)`` call, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (isinstance(func, ast.Attribute)
            and func.attr in _GROW_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"):
        return func.value.attr
    return None


class UnboundedGrowthRule(Rule):
    """Collections grown per message or per event need a visible bound.

    At 100k nodes, an ``append`` per message with no matching prune is
    an out-of-memory with a delay fuse; at city scale the same holds
    for the observability pipeline, which exists so million-request
    runs hold O(windows) memory.  The rule flags
    ``self.<attr>.append/extend(...)`` when *attr* is a plain container
    (initialized to a ``list``/``deque``/... in its class) and the
    class shows no bound evidence anywhere: a
    ``pop``/``popleft``/``clear``/``remove`` call, a ``del
    self.attr[...]``, a re-slicing assignment, a ``len(self.attr)``
    capacity guard, or a drain-reset.  Every method of a class is in
    scope -- handlers, timers and event-log subscribers alike, however
    they are registered -- in two places:

    * **protocol classes** -- classes in the ``pbft``/``core``/``net``/
      ``chain`` packages, where one append per message, commit or
      event compounds over a long run;
    * **the observability layer** -- classes in ``repro.obs``, where an
      unbounded buffer silently re-introduces the O(run-length)
      footprint the pipeline was built to remove.

    In both, attributes built as ``deque(maxlen=...)`` (the
    flight-recorder rings, the frames tail) are bounded by construction
    and exempt, so deleting a ``maxlen`` keyword turns the attribute
    back into a finding the moment it happens.  Collections that are
    legitimately append-only or capture-scoped (the chain itself, the
    tracer's closed-span list) carry an inline allow naming that contract.
    """

    rule_id = "GPB015"
    title = "no unbounded collection growth in protocol classes or the observability layer"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag evidence-free growth in protocol and obs classes."""
        if in_package(module, "obs"):
            message = _OBS_GROWTH
        elif in_package(module, *_PROTOCOL_PACKAGES):
            message = _PROTOCOL_GROWTH
        else:
            return
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            containers = _collection_attributes(cls)
            bounded: dict[str, bool] = {}
            for node in ast.walk(cls):
                attr = _grown_attribute(node)
                if attr not in containers:
                    continue
                if attr not in bounded:
                    bounded[attr] = _has_bound_evidence(cls, attr)
                if not bounded[attr]:
                    yield self.finding(
                        module, node, message.format(attr=attr, cls=cls.name))


def observability_rules() -> list[Rule]:
    """The vocabulary and bounded-growth rule set (GPB009, GPB015)."""
    return [EventVocabularyRule(), UnboundedGrowthRule()]
