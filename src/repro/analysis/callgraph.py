"""Project-wide call graph with import and module-attribute resolution.

The interprocedural arms of GPB001, GPB003, GPB005 and GPB015 need to
answer "who can call whom" across the whole analyzed tree.  This
module builds that graph once per analysis from nothing but the parsed
ASTs:

* every function and method becomes a node, identified by a stable
  qualified name ``"<module rel path>::<Class.>name"``;
* every ``ast.Call`` inside a function body becomes zero or more edges,
  resolved through the enclosing module's import table (``import x``,
  ``from x import y as z``, including ``TYPE_CHECKING`` blocks);
* calls that static resolution cannot pin to one target fall back to a
  conservative **dynamic-dispatch** approximation: ``obj.m(...)`` with an
  unknown receiver links to *every* method named ``m`` in the project,
  and ``getattr(obj, "m")(...)`` with a literal attribute does the same.
  ``getattr`` with a computed name cannot be enumerated; the caller is
  marked :attr:`FunctionInfo.has_opaque_calls` so rules can treat it
  conservatively.

The graph is intentionally an over-approximation: edges that can never
execute are acceptable (rules err towards reporting, and suppressions
carry the justification), missing edges are not.  Recursion and mutual
recursion are ordinary cycles; all reachability helpers are worklist
-based and cycle-safe.

``python -m repro.analysis --callgraph dot`` (or ``json``) dumps the
graph for inspection.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.rules import Module, Project, dotted_name


def module_dotted(rel: str) -> str:
    """Dotted module name for a normalized file path.

    ``src/repro/pbft/replica.py`` -> ``repro.pbft.replica`` (a leading
    ``src`` segment is dropped); ``pkg/__init__.py`` -> ``pkg``.
    """
    parts = list(rel.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(slots=True)
class FunctionInfo:
    """One function or method node of the call graph.

    Attributes:
        qual: stable id, ``"<module rel>::<Class.>name"``.
        module: normalized path of the defining module.
        name: bare function name.
        cls: enclosing class name, or ``None`` for module-level defs.
        node: the parsed definition.
        params: positional/keyword parameter names, in order
            (``self``/``cls`` included for methods).
        has_opaque_calls: the body contains a call the resolver cannot
            enumerate targets for (computed ``getattr``, callable
            stored in a variable); conservative rules should treat such
            functions as possibly-calling-anything.
    """

    qual: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]
    has_opaque_calls: bool = False


@dataclass(frozen=True, slots=True)
class CallEdge:
    """One resolved call site: *caller* invokes *callee*.

    ``dynamic`` marks edges produced by the dispatch fallback (receiver
    type unknown -- every same-named method linked) rather than a
    unique static resolution.  ``call`` keeps the call node so the
    argument-binding arm of GPB005 can inspect what flows into each
    parameter.
    """

    caller: str
    callee: str
    lineno: int
    col: int
    dynamic: bool
    call: ast.Call = field(compare=False, hash=False)


class CallGraph:
    """The resolved graph plus reachability helpers."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, list[CallEdge]] = {}
        #: callee -> its statically-resolved incoming edges, in build
        #: order.  Dynamic-dispatch edges stay out: every reverse query
        #: asks where a value comes from, and name collisions would
        #: flood that answer with noise.
        self.callers: dict[str, list[CallEdge]] = {}
        #: qual of every function owning each AST function node.
        self._by_node: dict[ast.AST, str] = {}

    # -- construction helpers (used by the builder) -----------------------

    def add_function(self, info: FunctionInfo) -> None:
        """Register *info* as a graph node with no edges yet."""
        self.functions[info.qual] = info
        self.edges.setdefault(info.qual, [])
        self._by_node[info.node] = info.qual

    def add_edge(self, edge: CallEdge) -> None:
        """Record a caller->callee edge (and its reverse when static)."""
        self.edges.setdefault(edge.caller, []).append(edge)
        if not edge.dynamic:
            self.callers.setdefault(edge.callee, []).append(edge)

    # -- queries -----------------------------------------------------------

    def callees(self, qual: str) -> list[CallEdge]:
        """Outgoing edges of *qual* (empty for unknown names)."""
        return self.edges.get(qual, [])

    def enclosing_function(self, module: Module, node: ast.AST) -> str | None:
        """Qualified name of the innermost function containing *node*."""
        for parent in module.parents_of(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return self._by_node.get(parent)
        return None

    def reachable_from(self, starts: Iterable[str]) -> set[str]:
        """Every function reachable from *starts* along call edges.

        Plain worklist BFS, so recursion cycles terminate naturally.
        """
        seen = set()
        work = [s for s in starts if s in self.functions]
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.edges.get(current, []):
                if edge.callee not in seen:
                    work.append(edge.callee)
        return seen

    # -- dumps -------------------------------------------------------------

    def to_json(self) -> str:
        """Machine-readable dump: nodes plus resolved edges."""
        return json.dumps({
            "functions": [
                {"qual": f.qual, "module": f.module, "name": f.name,
                 "class": f.cls, "line": f.node.lineno,
                 "opaque_calls": f.has_opaque_calls}
                for _, f in sorted(self.functions.items())
            ],
            "edges": [
                {"caller": e.caller, "callee": e.callee, "line": e.lineno,
                 "dynamic": e.dynamic}
                for caller in sorted(self.edges)
                for e in self.edges[caller]
            ],
        }, indent=2)

    def to_dot(self) -> str:
        """Graphviz rendering; dynamic-dispatch edges are dashed."""
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
        for qual in sorted(self.functions):
            lines.append(f'  "{qual}";')
        for caller in sorted(self.edges):
            for e in self.edges[caller]:
                style = ' [style=dashed]' if e.dynamic else ""
                lines.append(f'  "{e.caller}" -> "{e.callee}"{style};')
        lines.append("}")
        return "\n".join(lines)


@dataclass(slots=True)
class _ImportTable:
    """Local-name bindings of one module.

    Attributes:
        modules: alias -> dotted module name (``import x.y as z``).
        symbols: alias -> (dotted module, symbol) (``from m import s``).
    """

    modules: dict[str, str] = field(default_factory=dict)
    symbols: dict[str, tuple[str, str]] = field(default_factory=dict)


def _collect_imports(module: Module) -> _ImportTable:
    table = _ImportTable()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table.modules[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table.symbols[local] = (node.module, alias.name)
    return table


class CallGraphBuilder:
    """Two-pass builder: index definitions, then resolve call sites."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph()
        #: dotted module name -> module rel path.
        self._dotted: dict[str, str] = {}
        #: (module rel, top-level function name) -> qual.
        self._top_level: dict[tuple[str, str], str] = {}
        #: (module rel, class name, method name) -> qual.
        self._methods: dict[tuple[str, str, str], str] = {}
        #: class name -> [(module rel, class node)].
        self._classes: dict[str, list[tuple[str, ast.ClassDef]]] = {}
        #: method name -> [qual] across every class (dispatch fallback).
        self._any_method: dict[str, list[str]] = {}
        #: function name -> [qual] across every module's top level.
        self._any_top_level: dict[str, list[str]] = {}
        self._imports: dict[str, _ImportTable] = {}

    def build(self) -> CallGraph:
        """Index every definition, then add edges for every call site."""
        for rel in sorted(self.project.modules):
            self._index_module(self.project.modules[rel])
        for rel in sorted(self.project.modules):
            self._resolve_module(self.project.modules[rel])
        return self.graph

    # -- pass 1: definitions ----------------------------------------------

    def _index_module(self, module: Module) -> None:
        self._dotted[module_dotted(module.rel)] = module.rel
        self._imports[module.rel] = _collect_imports(module)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._classes.setdefault(node.name, []).append((module.rel, node))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._index_function(module, item, cls=node.name)

    def _index_function(self, module: Module,
                        node: ast.FunctionDef | ast.AsyncFunctionDef,
                        cls: str | None) -> None:
        label = f"{cls}.{node.name}" if cls else node.name
        qual = f"{module.rel}::{label}"
        args = node.args
        params = tuple(
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs))
        self.graph.add_function(FunctionInfo(
            qual=qual, module=module.rel, name=node.name, cls=cls,
            node=node, params=params))
        if cls is None:
            self._top_level[(module.rel, node.name)] = qual
            self._any_top_level.setdefault(node.name, []).append(qual)
        else:
            self._methods[(module.rel, cls, node.name)] = qual
            self._any_method.setdefault(node.name, []).append(qual)

    # -- pass 2: call sites -----------------------------------------------

    def _resolve_module(self, module: Module) -> None:
        for rel_cls, owner, func_node in self._functions_of(module):
            qual = f"{module.rel}::{owner}"
            info = self.graph.functions[qual]
            for call in self._calls_in(func_node):
                self._resolve_call(module, info, rel_cls, call)

    @staticmethod
    def _functions_of(module: Module) -> Iterator[
            tuple[str | None, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        """(class name, qual label, def node) for every indexed function."""
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield None, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node.name, f"{node.name}.{item.name}", item

    @staticmethod
    def _calls_in(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
        """Call nodes belonging to *func* itself, not to nested defs."""
        work: list[ast.AST] = list(ast.iter_child_nodes(func))
        while work:
            node = work.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs own their calls
            if isinstance(node, ast.Call):
                yield node
            work.extend(ast.iter_child_nodes(node))

    def _resolve_call(self, module: Module, info: FunctionInfo,
                      cls: str | None, call: ast.Call) -> None:
        func = call.func
        # getattr(obj, "name")(...) -- literal names over-approximate to
        # every same-named callable; computed names are opaque.
        if isinstance(func, ast.Call) and dotted_name(func.func) == "getattr":
            if (len(func.args) >= 2 and isinstance(func.args[1], ast.Constant)
                    and isinstance(func.args[1].value, str)):
                self._add_dynamic(info, call, func.args[1].value)
            else:
                info.has_opaque_calls = True
            return
        name = dotted_name(func)
        if not name:
            info.has_opaque_calls = True  # computed callee: x[0](), (f or g)()
            return
        parts = name.split(".")
        if len(parts) == 1:
            self._resolve_bare(module, info, call, parts[0])
        elif parts[0] == "self" and cls is not None and len(parts) == 2:
            self._resolve_self(module, info, call, cls, parts[1])
        else:
            self._resolve_attribute(module, info, call, parts)

    def _resolve_bare(self, module: Module, info: FunctionInfo,
                      call: ast.Call, name: str) -> None:
        table = self._imports[module.rel]
        if name in table.symbols:
            target_module, symbol = table.symbols[name]
            if self._link_in_module(info, call, target_module, symbol):
                return
            # `from pkg import submodule` -- treated as a module alias
            if self._module_rel(f"{target_module}.{symbol}") is not None:
                return  # bare module reference cannot be called
        qual = self._top_level.get((module.rel, name))
        if qual is not None:
            self._add(info, call, qual, dynamic=False)
            return
        self._link_constructor(module, info, call, name)

    def _resolve_self(self, module: Module, info: FunctionInfo,
                      call: ast.Call, cls: str, method: str) -> None:
        qual = self._methods.get((module.rel, cls, method))
        if qual is not None:
            self._add(info, call, qual, dynamic=False)
            return
        # not defined on this class: inherited or mixed in -- fall back
        # to every same-named method (conservative dispatch)
        self._add_dynamic(info, call, method)

    def _resolve_attribute(self, module: Module, info: FunctionInfo,
                           call: ast.Call, parts: list[str]) -> None:
        table = self._imports[module.rel]
        prefix, attr = parts[:-1], parts[-1]
        # longest-prefix module resolution: `a.b.c.f()` where `a` (or the
        # alias) binds a module and `a.b.c` names a submodule
        head = prefix[0]
        dotted: str | None = None
        if head in table.modules:
            dotted = ".".join([table.modules[head], *prefix[1:]])
        elif head in table.symbols:
            base_module, symbol = table.symbols[head]
            dotted = ".".join([f"{base_module}.{symbol}", *prefix[1:]])
            if len(prefix) == 1:
                # `Klass.method(...)` via an imported class
                target_rel = self._module_rel(base_module)
                if target_rel is not None:
                    qual = self._methods.get((target_rel, symbol, attr))
                    if qual is not None:
                        self._add(info, call, qual, dynamic=False)
                        return
        if dotted is not None and self._link_in_module(info, call, dotted, attr):
            return
        if len(prefix) == 1 and self._link_local_class_method(
                module, info, call, head, attr):
            return
        # unknown receiver: dynamic dispatch over every same-named method
        self._add_dynamic(info, call, attr)

    # -- edge helpers ------------------------------------------------------

    def _module_rel(self, dotted: str) -> str | None:
        """Project module for a dotted name, by exact then suffix match."""
        rel = self._dotted.get(dotted)
        if rel is not None:
            return rel
        matches = [r for d, r in self._dotted.items()
                   if d.endswith("." + dotted) or d == dotted]
        return matches[0] if len(matches) == 1 else None

    def _link_in_module(self, info: FunctionInfo, call: ast.Call,
                        dotted: str, name: str) -> bool:
        target_rel = self._module_rel(dotted)
        if target_rel is None:
            return False
        qual = self._top_level.get((target_rel, name))
        if qual is not None:
            self._add(info, call, qual, dynamic=False)
            return True
        # module-level class: `module.Klass(...)` constructs it
        for cls_rel, cls_node in self._classes.get(name, ()):
            if cls_rel == target_rel:
                self._link_class_init(info, call, cls_rel, name)
                return True
        return False

    def _link_constructor(self, module: Module, info: FunctionInfo,
                          call: ast.Call, name: str) -> None:
        """`Klass(...)` -- locally defined or imported class."""
        table = self._imports[module.rel]
        candidates = [
            (rel, node) for rel, node in self._classes.get(name, ())
            if rel == module.rel
        ]
        if not candidates and name in table.symbols:
            target_module, symbol = table.symbols[name]
            target_rel = self._module_rel(target_module)
            candidates = [
                (rel, node) for rel, node in self._classes.get(symbol, ())
                if rel == target_rel
            ]
        for rel, _node in candidates:
            self._link_class_init(info, call, rel, name)

    def _link_local_class_method(self, module: Module, info: FunctionInfo,
                                 call: ast.Call, cls: str, method: str) -> bool:
        """`Klass.method(...)` on a class defined in the same module."""
        qual = self._methods.get((module.rel, cls, method))
        if qual is not None:
            self._add(info, call, qual, dynamic=False)
            return True
        return False

    def _link_class_init(self, info: FunctionInfo, call: ast.Call,
                         rel: str, cls: str) -> None:
        qual = self._methods.get((rel, cls, "__init__"))
        if qual is not None:
            self._add(info, call, qual, dynamic=False)

    def _add_dynamic(self, info: FunctionInfo, call: ast.Call, name: str) -> None:
        targets = self._any_method.get(name, ())
        for qual in targets:
            self._add(info, call, qual, dynamic=True)
        if not targets:
            for qual in self._any_top_level.get(name, ()):
                self._add(info, call, qual, dynamic=True)

    def _add(self, info: FunctionInfo, call: ast.Call, callee: str,
             dynamic: bool) -> None:
        self.graph.add_edge(CallEdge(
            caller=info.qual, callee=callee, lineno=call.lineno,
            col=call.col_offset + 1, dynamic=dynamic, call=call))


def build_callgraph(project: Project) -> CallGraph:
    """Build (or fetch from *project*'s cache) the resolved call graph."""
    return CallGraphBuilder(project).build()
