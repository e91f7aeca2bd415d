"""Observability rules: event vocabulary, span hygiene, bounded growth.

The event-kind vocabulary lives as ``EV_*`` constants in
``repro/common/eventlog.py`` (satellite of the observability layer);
this module's rule reads those assignments straight from the AST --
exactly like GPB006 reads ``WIRE_MESSAGES`` -- and flags raw kind
literals anywhere else, so a typo'd kind cannot silently split the
vocabulary.  It also polices span bodies: code timed by a simulated
-time span must not consult the wall clock, or the span lies.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dataflow import (
    classes_of,
    collection_attributes,
    has_bound_evidence,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import Module, Project, Rule, call_name, in_package


def _vocabulary(project: Project) -> dict[str, str]:
    """kind literal -> constant name, read from every eventlog module.

    A module participates when its path ends with ``eventlog.py``; the
    constants are module-level ``EV_UPPER = "literal"`` assignments
    (plain or annotated).
    """
    vocab: dict[str, str] = {}
    for rel in sorted(project.modules):
        module = project.modules[rel]
        if not rel.endswith("eventlog.py"):
            continue
        for node in module.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            value = getattr(node, "value", None)
            if (
                isinstance(target, ast.Name)
                and target.id.startswith("EV_")
                and target.id.isupper()
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                vocab[value.value] = target.id
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


def _inside_span_body(module: Module, node: ast.AST) -> bool:
    """True when *node* sits inside a ``with ...span(...):`` body."""
    for parent in module.parents_of(node):
        if isinstance(parent, ast.With):
            for item in parent.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    callee = call_name(expr)
                    if callee == "span" or callee.endswith(".span"):
                        return True
    return False


class EventVocabularyRule(Rule):
    """Event kinds must come from the ``EV_*`` vocabulary, and span
    bodies must not read the wall clock.

    The event-kind vocabulary is the set of ``EV_*`` string constants
    in ``repro/common/eventlog.py``.  Writing one of those strings as
    a raw literal anywhere else re-spells the vocabulary by hand: the
    constant and the literal can drift apart silently (a typo'd kind
    records events nobody queries), so every consumer must import the
    constant instead.  Exemptions: eventlog modules themselves (the
    single definition site), the ``obs``/``codec`` packages (the codec
    names wire kinds, some of which double as event kinds; the
    ``WIRE_MESSAGES`` keys, pure literals for GPB006, carry inline
    allows), docstrings,
    and ``kind = ...`` class attributes (message-class wire-kind
    declarations).

    The second arm guards span integrity: inside a ``with
    tracer.span(...)`` body, a direct ``time.*`` call measures wall
    time while the enclosing span measures simulated time -- mixing
    the two produces plausible-looking but meaningless attributions.
    Use the simulator clock, or hoist the wall-clock read out of the
    span.
    """

    rule_id = "GPB009"
    title = "event kinds must use the shared EV_* vocabulary; no wall clock in span bodies"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag raw vocabulary literals and wall-clock reads in spans."""
        vocab = _vocabulary(project)
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if rel.endswith("eventlog.py") or in_package(module, "obs", "codec"):
                continue
            yield from self._check_module(module, vocab)

    def _check_module(self, module: Module,
                      vocab: dict[str, str]) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in vocab
                and not _is_docstring(module, node)
                and "kind" not in set(_assign_target_names(module, node))
            ):
                yield self.finding(
                    module, node,
                    f"raw event-kind literal {node.value!r}; import "
                    f"{vocab[node.value]} from repro.common.eventlog",
                )
            elif (
                isinstance(node, ast.Call)
                and call_name(node).startswith("time.")
                and _inside_span_body(module, node)
            ):
                yield self.finding(
                    module, node,
                    f"wall-clock call {call_name(node)}() inside a span "
                    "body; spans measure simulated time",
                )


#: ``self.<attr>.<method>(...)`` calls that grow a collection.
_GROW_METHODS = frozenset({"append", "appendleft", "extend", "extendleft"})


def _maxlen_attributes(cls: ast.ClassDef) -> set[str]:
    """Attributes initialized as ``deque(maxlen=...)`` anywhere in *cls*.

    A maxlen'd deque is a ring: appends displace instead of grow, so
    these attributes are bounded by construction and exempt from
    GPB016 -- which is exactly the property the rule machine-checks,
    because deleting the ``maxlen`` keyword turns the attribute back
    into a flagged plain container.
    """
    names: set[str] = set()
    for node in ast.walk(cls):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        value = getattr(node, "value", None)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Call)
            and call_name(value).rsplit(".", 1)[-1] == "deque"
            and any(kw.arg == "maxlen" for kw in value.keywords)
        ):
            names.add(target.attr)
    return names


class UnboundedObsGrowthRule(Rule):
    """Observability-layer collections must be visibly bounded.

    The v2 observability pipeline exists so million-request runs hold
    O(windows) memory, which makes ``repro.obs`` itself the worst
    place for an unbounded ``append``: a buffer that grows per event
    or per request silently re-introduces the O(run-length) footprint
    the pipeline was built to remove -- and it does so only at city
    scale, where the OOM arrives hours in.

    The rule flags ``self.<attr>.append/extend(...)`` inside any
    ``repro.obs`` class when *attr* is a plain container and the class
    shows no bound evidence (a ``pop``/``clear``/``remove`` call, a
    ``del self.attr[...]``, a re-slicing assignment, a ``len()``
    capacity guard, or a drain-reset).  Attributes built as
    ``deque(maxlen=...)`` -- the flight-recorder rings, the frames
    tail -- are bounded by construction and exempt, so removing a
    ``maxlen`` is caught the moment it happens.  Legitimately
    capture-scoped buffers (the v1 span list) carry an inline allow
    naming that contract.
    """

    rule_id = "GPB016"
    title = "no unbounded collection growth inside the observability layer"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Flag evidence-free container growth in ``repro.obs`` classes."""
        for rel in sorted(project.modules):
            module = project.modules[rel]
            if not in_package(module, "obs"):
                continue
            for cls in classes_of(module):
                yield from self._check_class(module, cls)

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        containers = collection_attributes(cls) - _maxlen_attributes(cls)
        if not containers:
            return
        bounded: dict[str, bool] = {}
        for node in ast.walk(cls):
            attr = self._grown_attribute(node)
            if attr is None or attr not in containers:
                continue
            if attr not in bounded:
                bounded[attr] = has_bound_evidence(cls, attr)
            if not bounded[attr]:
                yield self.finding(
                    module, node,
                    f"self.{attr} grows without a visible bound in "
                    f"observability class {cls.name}; ring it "
                    "(deque(maxlen=...)), prune it, or justify the "
                    "capture-scoped contract",
                )

    @staticmethod
    def _grown_attribute(node: ast.AST) -> str | None:
        """The attr name in ``self.<attr>.append/extend(...)``, or None."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _GROW_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            return func.value.attr
        return None


def observability_rules() -> list[Rule]:
    """The observability rule set (GPB009, GPB016)."""
    return [EventVocabularyRule(), UnboundedObsGrowthRule()]
