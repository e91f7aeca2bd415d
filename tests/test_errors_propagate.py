"""An error raised on the protocol path leaves ``Simulator.run`` unchanged.

In ``repro.pbft``, ``repro.core``, ``repro.net`` and ``repro.chain`` a
swallowed exception is a safety bug: a replica that catches
``Exception`` around message handling turns a quorum-accounting error
into silent vote loss, which the monitors can only see as a liveness
mystery.  Each case plants a raise of a test-local exception in one
callee a small run reaches, one package each, and requires the very
same exception object to leave ``Simulator.run``.  A broad ``except``
anywhere between the callee and the simulator fails the case.  The
last test restates such an ``except`` -- a caller on each planted path
wrapped in ``try/except Exception: pass`` -- and requires the check
then to fail.
"""

from __future__ import annotations

import pytest

from repro.chain.ledger import Ledger
from repro.common.config import TopologySpec
from repro.core.node import GPBFTNode
from repro.net.network import SimulatedNetwork
from repro.pbft.log import MessageLog
from repro.pbft.messages import RawOperation, Reply
from repro.pbft.replica import PBFTReplica


class Planted(Exception):
    """Raised by a planted callee; nothing under test knows this type."""


class Plant:
    """Wraps a callee to raise a fresh :class:`Planted` on its *at*-th call.

    Every other call does the callee's job, so the run up to the raise
    is the unplanted run; ``at=0`` only counts the calls.
    """

    def __init__(self, at: int) -> None:
        self.at, self.calls, self.error = at, 0, Planted(at)

    def wrap(self, callee):
        def planted(*args, **kwargs):
            self.calls += 1
            if self.calls == self.at:
                raise self.error
            return callee(*args, **kwargs)
        return planted


def _cluster():
    """A 4-replica PBFT cluster with one operation armed."""
    cluster = TopologySpec.cluster(4, 1).build()
    cluster.sim.schedule_at(1.0, cluster.any_client.submit, RawOperation(op_id="op"))
    return cluster


def _deployment():
    """A 12-node G-PBFT deployment with one device's transaction armed."""
    deployment = TopologySpec.single(12, 4, seed=42).build()
    device = deployment.nodes[10]
    device.submit_transaction(device.next_transaction(key="temp", value="25C"))
    return deployment


def _plant_add_prepare(mp, host, plant):
    mp.setattr(MessageLog, "add_prepare", plant.wrap(MessageLog.add_prepare))


def _plant_node_handler(mp, host, plant):
    # the devices' reply handler; a device reads the table per message
    mp.setitem(GPBFTNode._HANDLERS, Reply.kind, plant.wrap(GPBFTNode._HANDLERS[Reply.kind]))


def _plant_port_handler(mp, host, plant):
    host.network.set_handler(1, plant.wrap(host.replicas[1].receive))


def _plant_ledger_append(mp, host, plant):
    mp.setattr(Ledger, "append", plant.wrap(Ledger.append))


#: package -> (build a host, plant a callee in it, (owner, name) of a
#: caller on the planted path).  A port binds its handler when the host
#: registers it, so the caller is replaced before the host is built.
CASES = {
    "pbft": (_cluster, _plant_add_prepare, (PBFTReplica, "receive")),
    "core": (_deployment, _plant_node_handler, (GPBFTNode, "receive")),
    "net": (_cluster, _plant_port_handler, (SimulatedNetwork, "_process")),
    "chain": (_deployment, _plant_ledger_append, (GPBFTNode, "_execute_tx")),
}


def _swallowing(function):
    """*function* behind the broad ``except`` this file exists to reject."""
    def caller(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        except Exception:
            pass
    return caller


def _run(monkeypatch, package, at, swallow):
    """Run *package*'s case with its callee raising on call *at*.

    Returns the plant and whatever left ``Simulator.run`` (``None``
    when the run ended normally).
    """
    build, install, (owner, name) = CASES[package]
    plant = Plant(at)
    with monkeypatch.context() as mp:
        if swallow:
            mp.setattr(owner, name, _swallowing(getattr(owner, name)))
        host = build()
        install(mp, host, plant)
        try:
            host.sim.run(until=60.0)
        except BaseException as left:
            return plant, left
    return plant, None


def swallowed(monkeypatch, package, swallow=False) -> list[int]:
    """The calls of *package*'s callee whose raise did not leave the run.

    The callee raises on each of its calls in turn, one run per call,
    so a broad ``except`` on any one path to it shows.
    """
    total = _run(monkeypatch, package, 0, swallow)[0].calls
    assert total > 0, f"no run reaches the {package} callee"
    lost = []
    for at in range(1, total + 1):
        plant, left = _run(monkeypatch, package, at, swallow)
        if left is not plant.error:
            lost.append(at)
    return lost


@pytest.mark.parametrize("package", sorted(CASES))
def test_every_planted_error_leaves_simulator_run(monkeypatch, package):
    assert swallowed(monkeypatch, package) == []


@pytest.mark.parametrize("package", sorted(CASES))
def test_a_swallowing_caller_on_the_path_fails_the_check(monkeypatch, package):
    assert swallowed(monkeypatch, package, swallow=True) != []
