"""Protocol-safety rules (GPB005-GPB008, GPB012).

These rules encode the BFT-specific review checklist: quorum arithmetic
lives in one audited helper, every codec-registered wire message has a
runtime handler, protocol hot paths never swallow exceptions broadly,
no signature shares mutable default state between calls, and wire
decoders bounds-check before they index.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Module,
    Project,
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


class CodecHandlerCoverageRule(Rule):
    """Every codec-registered wire message must have a live handler.

    The codec registry (the literal ``WIRE_MESSAGES`` dict in
    ``repro/common/wire_layout.py``) gives, for each wire kind, the
    ``struct`` layout of its fixed record, its encoder and decoder in
    the codec module and -- for kinds that are dispatched at runtime --
    the module and callable that handles it.  This rule re-reads the
    registry from the AST and verifies each named function actually
    exists, so a message type cannot be added to the wire without its
    runtime half (or renamed away from under the registry) silently.
    Entries with an empty ``handler`` are data layouts embedded in other
    messages and only have their codec half checked.  Every entry must
    also carry a ``layout`` (and may carry an ``item`` and a ``tail``)
    that ``struct.calcsize`` accepts: the codec packs with those
    strings and the message classes size themselves from them, so a
    missing or malformed one would otherwise surface only at import.
    Registry entries must be pure literals for the rule to read them.
    """

    rule_id = "GPB006"
    title = "codec registry entries must carry a valid layout and name existing codec + handler functions"

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Cross-check WIRE_MESSAGES entries against their target modules."""
        for rel in sorted(project.modules):
            module = project.modules[rel]
            registry = self._find_registry(module)
            if registry is None:
                continue
            yield from self._check_registry(project, module, registry)

    @staticmethod
    def _find_registry(module: Module) -> ast.Dict | None:
        """The ``WIRE_MESSAGES = {...}`` literal of *module*, if present."""
        for node in module.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if (isinstance(target, ast.Name) and target.id == "WIRE_MESSAGES"
                    and isinstance(getattr(node, "value", None), ast.Dict)):
                return node.value
        return None

    def _check_registry(self, project: Project, module: Module,
                        registry: ast.Dict) -> Iterable[Finding]:
        for key, value in zip(registry.keys, registry.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                yield self.finding(module, key or registry,
                                   "registry keys must be string literals")
                continue
            kind = key.value
            try:
                spec = ast.literal_eval(value)
            except ValueError:
                yield self.finding(module, value,
                                   f"entry for {kind!r} is not a pure literal")
                continue
            if not isinstance(spec, dict):
                yield self.finding(module, value,
                                   f"entry for {kind!r} must be a dict")
                continue
            yield from self._check_entry(project, module, key, kind, spec)

    def _check_entry(self, project: Project, module: Module, anchor: ast.AST,
                     kind: str, spec: dict) -> Iterable[Finding]:
        for part in ("layout", "item", "tail"):
            layout = spec.get(part, None if part == "layout" else "")
            try:
                struct.calcsize(">" + layout)
            except (TypeError, struct.error):
                yield self.finding(
                    module, anchor,
                    f"{kind!r}: {part} {layout!r} is not a struct format")
        codec_module = spec.get("codec_module", "")
        for role in ("encoder", "decoder"):
            name = spec.get(role, "")
            if name and codec_module:
                yield from self._require_def(
                    project, module, anchor, kind, codec_module, name, role)
        handler = spec.get("handler", "")
        handler_module = spec.get("handler_module", "")
        if handler and not handler_module:
            yield self.finding(
                module, anchor,
                f"{kind!r} names handler {handler!r} without a handler_module")
        elif handler_module and not handler:
            yield self.finding(
                module, anchor,
                f"{kind!r} names handler_module {handler_module!r} "
                "without a handler")
        elif handler:
            yield from self._require_def(
                project, module, anchor, kind, handler_module, handler, "handler")

    def _require_def(self, project: Project, module: Module, anchor: ast.AST,
                     kind: str, target_module: str, name: str,
                     role: str) -> Iterable[Finding]:
        target = project.find_suffix(target_module)
        if target is None:
            yield self.finding(
                module, anchor,
                f"{kind!r}: {role} module {target_module!r} is not part of "
                "the analyzed tree")
            return
        for node in ast.walk(target.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == name):
                return
        yield self.finding(
            module, anchor,
            f"{kind!r}: {role} {name!r} does not exist in {target.rel}")


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


def protocol_rules() -> Iterator[Rule]:
    """Instantiate the P-rule set in id order."""
    yield InlineQuorumArithmeticRule()
    yield CodecHandlerCoverageRule()
    yield BroadExceptRule()
    yield MutableDefaultRule()
    yield DecodeBoundsRule()
