"""No default value is a mutable container shared between calls.

A ``def f(batch=[])`` default is built once, when the ``def`` runs, and
every call that leaves the argument out appends to that one list:
replica state bleeding between instances is how "works with one
cluster, corrupts with two" starts.  A dataclass field default is shared
by every instance the same way; Python rejects only unhashable ones,
so a hashable ``list`` subclass gets through.

The check imports every ``repro`` module and reads the defaults Python
actually stored: every function's ``__defaults__`` and
``__kwdefaults__``, methods, static and class methods and property
accessors included, and every dataclass field's ``default``.  A
function defined inside another one exists only while its parent runs,
so it is not read.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import sys
import types

import pytest

import repro

MUTABLE = (list, dict, set, bytearray)


def _own(owner, value) -> bool:
    """True when *value* was defined in *owner*'s body, not imported or aliased."""
    if isinstance(owner, types.ModuleType):
        return getattr(value, "__module__", None) == owner.__name__
    return getattr(value, "__qualname__", "").startswith(owner.__qualname__ + ".")


def _scan(owner, prefix: str, hits: list[str]) -> int:
    """Append *owner*'s mutable defaults to *hits*; return the functions read.

    *owner* is a module or a class, walked into the classes it defines.
    """
    read = 0
    if inspect.isclass(owner) and dataclasses.is_dataclass(owner):
        hits += [f"{prefix}{field.name}" for field in dataclasses.fields(owner)
                 if isinstance(field.default, MUTABLE)]
    for name, value in vars(owner).items():
        if isinstance(value, property):
            functions = [value.fget, value.fset, value.fdel]
        else:
            functions = [getattr(value, "__func__", value)]  # static/class methods
        for function in functions:
            if function is None or not _own(owner, function):
                continue
            if inspect.isclass(function):
                read += _scan(function, f"{prefix}{name}.", hits)
                continue
            function = inspect.unwrap(function)
            if not inspect.isfunction(function):
                continue
            read += 1
            parameters = inspect.signature(function, follow_wrapped=False).parameters
            hits += [f"{prefix}{name}({param.name})" for param in parameters.values()
                     if isinstance(param.default, MUTABLE)]
    return read


def shared_defaults(modules) -> tuple[list[str], int]:
    """Every mutable default in *modules*, and the number of functions read.

    A hit reads ``module.Qualified.name(param)`` for a function and
    ``module.Class.field`` for a dataclass field.
    """
    hits: list[str] = []
    read = sum(_scan(module, f"{module.__name__}.", hits) for module in modules)
    return hits, read


def test_no_repro_default_is_a_shared_mutable_container():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(repro.__path__, "repro.")
               if info.name.rpartition(".")[2] != "__main__"]
    hits, read = shared_defaults(modules)
    assert hits == []
    # the walk reached the package, not an empty corner of it
    assert len(modules) > 80 and read > 1000, (len(modules), read)


#: one planted mutable default per place a default can sit, and the hits
#: the walk must report for it
_PLANTS = {
    "function": ("""
def enqueue(tx, pool=[]):
    pool.append(tx)
    return pool
""", ["planted.enqueue(pool)"]),
    "keyword-only": ("""
def enqueue(tx, *, seen={}):
    return seen.setdefault(tx, len(seen))
""", ["planted.enqueue(seen)"]),
    "method": ("""
class Mempool:
    def add(self, tx, pool=[]):
        return pool
""", ["planted.Mempool.add(pool)"]),
    "staticmethod": ("""
class Mempool:
    @staticmethod
    def batch(txs, out=set()):
        return out | set(txs)
""", ["planted.Mempool.batch(out)"]),
    "classmethod": ("""
class Mempool:
    @classmethod
    def raw(cls, tx, buf=bytearray()):
        return buf + tx
""", ["planted.Mempool.raw(buf)"]),
    "property-setter": ("""
class Mempool:
    @property
    def size(self):
        return 0

    @size.setter
    def size(self, value, cache={}):
        cache[id(self)] = value
""", ["planted.Mempool.size(cache)"]),
    "nested-class": ("""
class Mempool:
    class Shard:
        def add(self, tx, pool=[]):
            return pool
""", ["planted.Mempool.Shard.add(pool)"]),
    # Python rejects an unhashable field default, so the plant is a
    # hashable list; the generated __init__ shares it too
    "dataclass-field": ("""
from dataclasses import dataclass


class Pool(list):
    __hash__ = object.__hash__


@dataclass
class Queue:
    items: list = Pool()
""", ["planted.Queue.__init__(items)", "planted.Queue.items"]),
}


def _planted(monkeypatch, source: str, name: str = "planted") -> types.ModuleType:
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)  # @dataclass reads it
    exec(compile(source, f"{name}.py", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("where", list(_PLANTS))
def test_a_planted_mutable_default_is_named(monkeypatch, where):
    source, expected = _PLANTS[where]
    hits, _ = shared_defaults([_planted(monkeypatch, source)])
    assert sorted(hits) == expected


@pytest.mark.parametrize("kind", [kind.__name__ for kind in MUTABLE])
def test_every_mutable_container_kind_is_named(monkeypatch, kind):
    module = _planted(monkeypatch, f"def enqueue(tx, pool={kind}()):\n    return pool\n")
    assert shared_defaults([module])[0] == ["planted.enqueue(pool)"]


def test_a_safe_or_borrowed_default_is_not_named(monkeypatch):
    # None, tuple and frozenset defaults are not shared mutable state, and
    # a function imported from another module is that module's to report
    origin = _planted(monkeypatch, _PLANTS["function"][0], name="origin")
    module = _planted(monkeypatch, """
from origin import enqueue as borrowed


def enqueue(tx, pool=None, tags=(), seen=frozenset()):
    return [tx] if pool is None else pool + [tx]
""")
    assert shared_defaults([module]) == ([], 1)
    assert shared_defaults([module, origin]) == (["origin.enqueue(pool)"], 2)
