"""The seam table: which public callable is timed under which layer metric.

Every span the traced run records is opened here, from outside the
program: a seam names a public callable of ``repro`` by its dotted path
and the per-layer metric its self time is filed under.  Later refactors
will rename some of these; a seam that no longer resolves is reported,
its time falls to the enclosing span (lowering ``trace.coverage``), and
the run carries on.

Three seams need more than a plain wrapper:

* ``Simulator.schedule`` / ``schedule_at`` also wrap the callback they
  are handed and file it under the package that owns it, which is how
  network delivery, protocol timers and arrival generators are told
  apart without naming any private method;
* ``SimulatedNetwork.register`` wraps the handler it is handed, filed
  by owner the same way;
* module-level functions are re-bound in every loaded ``repro.*`` module
  that imported the same function object by name.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench.tracer import Tracer

#: Span of the benchmark's own code: the root of every traced run.
DRIVER = "bench.driver_s"

#: Per-layer self-time metrics, in reporting order.
LAYER_SECONDS = (
    "net.sim_loop_s", "net.schedule_s", "net.send_s", "net.deliver_s",
    "pbft.handle_s", "pbft.log_s", "pbft.timer_s",
    "core.handle_s", "core.timer_s",
    "chain.apply_s", "geo.s",
    "crypto.sign_verify_s", "crypto.hash_s",
    "codec.encode_s", "codec.decode_s",
    "workloads.arrival_s", "common.eventlog_s",
    DRIVER,
)

_SIM = "repro.net.simulator.Simulator."
_NET = "repro.net.network.SimulatedNetwork."
_LOG = "repro.pbft.log.MessageLog."
_NODE = "repro.core.node.GPBFTNode."

#: dotted public name -> layer metric (plain call spans).
CALL_SEAMS: dict[str, str] = {
    _SIM + "run": "net.sim_loop_s",
    _SIM + "run_for": "net.sim_loop_s",
    _SIM + "run_until_condition": "net.sim_loop_s",
    _SIM + "step": "net.sim_loop_s",
    _NET + "send": "net.send_s",
    _NET + "multicast": "net.send_s",
    "repro.pbft.replica.PBFTReplica.receive": "pbft.handle_s",
    "repro.pbft.client.PBFTClient.receive": "pbft.handle_s",
    "repro.pbft.client.PBFTClient.submit": "pbft.handle_s",
    _LOG + "add_pre_prepare": "pbft.log_s",
    _LOG + "add_prepare": "pbft.log_s",
    _LOG + "add_commit": "pbft.log_s",
    _LOG + "prepared": "pbft.log_s",
    _LOG + "committed_local": "pbft.log_s",
    _LOG + "garbage_collect": "pbft.log_s",
    _NODE + "next_transaction": "core.handle_s",
    _NODE + "submit_transaction": "core.handle_s",
    _NODE + "send_geo_report": "core.handle_s",
    "repro.core.deployment.GPBFTDeployment.force_era_switch": "core.handle_s",
    "repro.core.election.ElectionTable.observe": "core.handle_s",
    "repro.core.era.EraHistory.begin_switch": "core.handle_s",
    "repro.core.era.EraHistory.complete_switch": "core.handle_s",
    "repro.chain.ledger.Ledger.append": "chain.apply_s",
    "repro.chain.ledger.Ledger.contains_tx": "chain.apply_s",
    "repro.chain.mempool.Mempool.add": "chain.apply_s",
    "repro.chain.mempool.Mempool.take_batch": "chain.apply_s",
    "repro.chain.mempool.Mempool.remove_committed": "chain.apply_s",
    "repro.chain.block.Block.assemble": "chain.apply_s",
    "repro.geo.geohash.geohash_encode": "geo.s",
    "repro.geo.coords.haversine_m": "geo.s",
    "repro.geo.csc.CryptoSpatialCoordinate.from_point": "geo.s",
    "repro.geo.reports.ReportHistory.add": "geo.s",
    "repro.geo.reports.ReportHistory.stationary_since": "geo.s",
    "repro.geo.index.SpatialIndex.nearest": "geo.s",
    "repro.geo.index.SpatialIndex.within": "geo.s",
    "repro.crypto.keys.KeyPair.sign": "crypto.sign_verify_s",
    "repro.crypto.keys.KeyPair.verify": "crypto.sign_verify_s",
    "repro.crypto.keys.PrivateKey.sign": "crypto.sign_verify_s",
    "repro.crypto.keys.PublicKey.verify": "crypto.sign_verify_s",
    "repro.crypto.hashing.sha256": "crypto.hash_s",
    "repro.crypto.hashing.digest_concat": "crypto.hash_s",
    "repro.crypto.merkle.merkle_root": "crypto.hash_s",
    "repro.crypto.merkle.MerkleTree.__init__": "crypto.hash_s",
    "repro.common.eventlog.EventLog.record": "common.eventlog_s",
}

#: Seams that also wrap the callback they are handed.
SCHEDULE_SEAMS = (_SIM + "schedule", _SIM + "schedule_at")
SCHEDULE_METRIC = "net.schedule_s"
REGISTER_SEAM = _NET + "register"

#: Owning ``repro`` package -> metric, for scheduled callbacks and for
#: registered receive handlers.  Anything else is the benchmark's own.
CALLBACK_METRIC = {"net": "net.deliver_s", "pbft": "pbft.timer_s",
                   "core": "core.timer_s", "workloads": "workloads.arrival_s"}
HANDLER_METRIC = {"pbft": "pbft.handle_s", "core": "core.handle_s"}


def codec_seams() -> dict[str, str]:
    """Encoder/decoder seams read from the ``WIRE_MESSAGES`` registry."""
    from repro.codec.registry import WIRE_MESSAGES

    seams = {}
    for kind in sorted(WIRE_MESSAGES):
        entry = WIRE_MESSAGES[kind]
        module = entry["codec_module"].removesuffix(".py").replace("/", ".")
        for role, metric in (("encoder", "codec.encode_s"),
                             ("decoder", "codec.decode_s")):
            if entry[role]:
                seams[f"{module}.{entry[role]}"] = metric
    return seams


def owner_package(callback: Callable[..., Any]) -> str:
    """The ``repro`` sub-package that owns *callback* ('' if none)."""
    callback = getattr(callback, "func", callback)  # functools.partial
    owner = getattr(callback, "__self__", None)
    if owner is not None and not inspect.ismodule(owner):
        module = type(owner).__module__
    else:
        module = getattr(callback, "__module__", None) or ""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else ""


def resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted public name.

    Raises:
        LookupError: when no module prefix imports or an attribute on
            the way is missing.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            if not hasattr(owner, name):
                raise LookupError(f"{target}: no attribute {name!r}")
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise LookupError(f"{target}: no attribute {parts[-1]!r}")
        return owner, parts[-1]
    raise LookupError(f"{target}: no importable module")


@dataclass
class Installed:
    """Wrappers currently in place, and the seams that did not resolve."""

    unresolved: dict[str, str] = field(default_factory=dict)
    _undo: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    def remove(self) -> None:
        """Put every original attribute back."""
        for owner, name, raw, own in reversed(self._undo):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._undo.clear()


def _replace(installed: Installed, owner: Any, name: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    """Swap ``owner.name`` for ``make(original)``, keeping its binding kind."""
    own = name in vars(owner)
    raw = vars(owner)[name] if own else getattr(owner, name)
    if isinstance(raw, (classmethod, staticmethod)):
        new: Any = type(raw)(make(raw.__func__))
    else:
        new = make(raw)
    installed._undo.append((owner, name, raw, own))
    setattr(owner, name, new)
    if inspect.ismodule(owner) and inspect.isfunction(raw):
        # ``from module import fn`` copies: same object, other namespaces
        for mod_name in sorted(sys.modules):
            module = sys.modules[mod_name]
            if module is owner or not mod_name.startswith("repro."):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    installed._undo.append((module, alias, raw, True))
                    setattr(module, alias, new)


def install(tracer: Tracer) -> Installed:
    """Wrap every seam that resolves; report the rest."""
    installed = Installed()

    def schedule_wrapper(orig: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(sim: Any, when: float, callback: Callable[..., Any],
                     *args: Any) -> Any:
            name = CALLBACK_METRIC.get(owner_package(callback), DRIVER)
            if not tracer.active:
                return orig(sim, when, tracer.fire, name, callback, *args)
            tracer.enter(SCHEDULE_METRIC)
            try:
                return orig(sim, when, tracer.fire, name, callback, *args)
            finally:
                tracer.exit()
        return schedule

    def register_wrapper(orig: Callable[..., Any]) -> Callable[..., Any]:
        def register(network: Any, node_id: int,
                     handler: Callable[..., Any]) -> Any:
            name = HANDLER_METRIC.get(owner_package(handler), DRIVER)
            return orig(network, node_id, tracer.wrap(handler, name))
        return register

    def call_wrapper(metric: str) -> Callable[..., Any]:
        return lambda orig: tracer.wrap(orig, metric)

    plan: list[tuple[str, str, Callable[..., Any]]] = [
        (target, metric, call_wrapper(metric))
        for target, metric in {**CALL_SEAMS, **codec_seams()}.items()]
    plan += [(target, SCHEDULE_METRIC, schedule_wrapper)
             for target in SCHEDULE_SEAMS]
    plan.append((REGISTER_SEAM, "pbft.handle_s", register_wrapper))
    for target, metric, make in plan:
        try:
            owner, name = resolve(target)
        except LookupError as exc:
            installed.unresolved[target] = metric
            print(f"perfbench: warning: seam does not resolve, {metric} "
                  f"loses it: {exc}", file=sys.stderr)
            continue
        _replace(installed, owner, name, make)
    return installed
