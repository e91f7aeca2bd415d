"""Protocol-safety rules (GPB005, GPB007, GPB008).

These rules encode the BFT-specific review checklist: quorum arithmetic
lives in one audited helper, protocol hot paths never swallow
exceptions broadly, and no signature shares mutable default state
between calls.  The codec registry and the decoders' bounds are checked
by tests that import them (``tests/test_codec.py``,
``tests/test_wire_roundtrip.py``), not by reading their source.
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


def _is_f_like(node: ast.AST | None) -> bool:
    """True for the canonical fault-bound names: ``f`` or ``<obj>.f``."""
    if isinstance(node, ast.Name):
        return node.id == "f"
    return isinstance(node, ast.Attribute) and node.attr == "f"


def _is_const(node: ast.AST, value: int) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _quorum_operand(node: ast.BinOp) -> ast.expr | None:
    """The ``x`` of a ``k*x + 1`` shape (k in {2, 3}), in any operand order."""
    if not isinstance(node.op, ast.Add):
        return None
    for mult, one in ((node.left, node.right), (node.right, node.left)):
        if not (_is_const(one, 1) and isinstance(mult, ast.BinOp)
                and isinstance(mult.op, ast.Mult)):
            continue
        for coeff, var in ((mult.left, mult.right), (mult.right, mult.left)):
            if _is_const(coeff, 2) or _is_const(coeff, 3):
                return var
    return None


def _is_max_faulty_shape(node: ast.BinOp) -> bool:
    """Match ``(<non-constant> - 1) // 3``."""
    return (isinstance(node.op, ast.FloorDiv)
            and _is_const(node.right, 3)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Sub)
            and _is_const(node.left.right, 1)
            and not isinstance(node.left.left, ast.Constant))


class InlineQuorumArithmeticRule(Rule):
    """Quorum thresholds and fault bounds must come from
    ``repro.common.quorum``.

    Inline quorum arithmetic scattered across replicas, logs, and
    view-change code is where quorum off-by-ones hide -- the exact bug
    class the runtime quorum-certificate monitor exists to catch after
    the fact.  Compute thresholds with
    :func:`repro.common.quorum.quorum_size` /
    :func:`repro.common.quorum.max_faulty` /
    :func:`repro.common.quorum.weak_certificate_size` instead, so the
    arithmetic exists exactly once.  Two arms, both exempting the
    helper module itself (``quorum.py``):

    * **inline quorum arithmetic**: ``2*f + 1`` / ``3*f + 1`` on a
      fault bound named ``f`` (or ``<obj>.f``).
    * **inline max-faulty arithmetic**: any non-constant
      ``(n - 1) // 3`` expression re-derives the fault bound by hand;
      use :func:`repro.common.quorum.max_faulty` (raises for ``n < 4``)
      or :func:`repro.common.quorum.tolerated_faults` (degenerate
      committees allowed).
    """

    rule_id = "GPB005"
    title = "no inline quorum or fault-bound arithmetic outside repro.common.quorum"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag inline quorum and max-faulty shapes."""
        if module.rel.endswith("/quorum.py") or module.rel == "quorum.py":
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if _is_max_faulty_shape(node):
                yield self.finding(
                    module, node,
                    "inline fault-bound arithmetic ((n - 1) // 3); use "
                    "repro.common.quorum.max_faulty() or "
                    "tolerated_faults()",
                )
            elif _is_f_like(_quorum_operand(node)):
                yield self.finding(
                    module, node,
                    "inline quorum arithmetic; use "
                    "repro.common.quorum.quorum_size()/max_faulty()",
                )


#: Package segments that form the consensus-critical hot path.
_HOT_PATH_PACKAGES = ("pbft", "core", "net", "chain")


class BroadExceptRule(Rule):
    """No bare or broad ``except`` in protocol hot paths.

    In ``repro.pbft``, ``repro.core``, ``repro.net`` and ``repro.chain``
    a swallowed exception is a safety bug: a replica that catches
    ``Exception`` around message handling turns a quorum-accounting
    error into silent vote loss, which the runtime monitors can only
    see as a liveness mystery.  Catch the specific
    :class:`repro.common.errors.ReproError` subclass the operation can
    raise; let everything else propagate to the simulator, where it
    aborts the run with full context.
    """

    rule_id = "GPB007"
    title = "no bare/broad except in protocol hot paths"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag bare/Exception/BaseException handlers in hot-path packages."""
        if not in_package(module, *_HOT_PATH_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node.type):
                caught = "bare except" if node.type is None else (
                    f"except {ast.unparse(node.type)}")
                yield self.finding(
                    module, node,
                    f"{caught} swallows protocol errors; catch a specific "
                    "ReproError subclass",
                )

    @classmethod
    def _is_broad(cls, type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(cls._is_broad(el) for el in type_node.elts)
        terminal = dotted_name(type_node).rsplit(".", 1)[-1]
        return terminal in ("Exception", "BaseException")


#: Constructors whose results are shared-mutable when used as defaults.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "OrderedDict", "defaultdict",
    "Counter", "deque",
})


class MutableDefaultRule(Rule):
    """No mutable default arguments in functions or dataclass fields.

    A ``def f(batch=[])`` default is evaluated once and shared by every
    call -- replica state bleeding across instances is exactly how
    "works with one cluster, corrupts with two" bugs start.  Dataclass
    fields get the same treatment: Python only rejects the literal
    ``list``/``dict``/``set`` cases at class-creation time, while
    ``OrderedDict()``/``deque()`` defaults slip through and alias one
    object across all instances.  Use ``None`` plus an in-body default,
    or ``dataclasses.field(default_factory=...)``.
    """

    rule_id = "GPB008"
    title = "no mutable default arguments or dataclass field defaults"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag mutable defaults in signatures and dataclass bodies."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.finding(
                            module, default,
                            "mutable default argument is shared between "
                            "calls; default to None and build it in-body",
                        )
            elif isinstance(node, ast.ClassDef) and self._is_dataclass(node):
                for stmt in node.body:
                    value = getattr(stmt, "value", None)
                    if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                            and value is not None and self._is_mutable(value)):
                        yield self.finding(
                            module, value,
                            "mutable dataclass field default is shared "
                            "between instances; use field(default_factory=...)",
                        )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            terminal = call_name(node).rsplit(".", 1)[-1]
            return terminal in _MUTABLE_FACTORIES
        return False

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if dotted_name(target).rsplit(".", 1)[-1] == "dataclass":
                return True
        return False


def protocol_rules() -> Iterator[Rule]:
    """Instantiate the P-rule set in id order."""
    yield InlineQuorumArithmeticRule()
    yield BroadExceptRule()
    yield MutableDefaultRule()
