"""Seams resolve, wrap, re-bind and come off again; a stale one is survivable."""

import pytest

from perfbench import seams
from perfbench.tracer import Tracer


def test_every_seam_in_the_table_resolves_on_this_tree():
    for target in list(seams.CALL_SEAMS) + list(seams.codec_seams()) + [
            *seams.SCHEDULE_SEAMS, seams.REGISTER_SEAM]:
        owner, name = seams.resolve(target)
        assert callable(getattr(owner, name)), target
    assert set(seams.CALL_SEAMS.values()) <= set(seams.LAYER_SECONDS)


def test_install_wraps_rebinds_and_remove_restores():
    import repro.codec
    import repro.codec.wire
    import repro.crypto.hashing
    import repro.pbft.cluster
    from repro.chain.block import Block
    from repro.net.simulator import Simulator

    before = (Simulator.run, repro.crypto.hashing.sha256,
              repro.pbft.cluster.sha256, repro.codec.encode_prepare,
              vars(Block)["assemble"])
    installed = seams.install(Tracer())
    try:
        assert not installed.unresolved
        assert Simulator.run is not before[0]
        # the same function object imported by name elsewhere is re-bound
        assert repro.pbft.cluster.sha256 is repro.crypto.hashing.sha256
        assert repro.pbft.cluster.sha256 is not before[2]
        assert repro.codec.encode_prepare is repro.codec.wire.encode_prepare
        assert isinstance(vars(Block)["assemble"], classmethod)
    finally:
        installed.remove()
    after = (Simulator.run, repro.crypto.hashing.sha256,
             repro.pbft.cluster.sha256, repro.codec.encode_prepare,
             vars(Block)["assemble"])
    assert after == before


def test_a_seam_that_no_longer_resolves_is_reported_not_fatal(monkeypatch, capsys):
    monkeypatch.setitem(seams.CALL_SEAMS,
                        "repro.net.simulator.Simulator.renamed_away",
                        "net.sim_loop_s")
    monkeypatch.setitem(seams.CALL_SEAMS, "repro.no_such_module.fn", "geo.s")
    installed = seams.install(Tracer())
    try:
        assert installed.unresolved == {
            "repro.net.simulator.Simulator.renamed_away": "net.sim_loop_s",
            "repro.no_such_module.fn": "geo.s"}
    finally:
        installed.remove()
    err = capsys.readouterr().err
    assert "renamed_away" in err and "net.sim_loop_s" in err


def test_scheduled_callbacks_are_filed_by_owning_package():
    from repro.net.network import SimulatedNetwork
    from repro.net.message import RawPayload
    from repro.net.simulator import Simulator

    tracer = Tracer()
    installed = seams.install(tracer)
    try:
        sim = Simulator()
        network = SimulatedNetwork(sim)
        got = []
        network.register(0, got.append)
        network.register(1, got.append)
        tracer.enter(seams.DRIVER)
        network.send(0, 1, RawPayload("test.ping", 8))
        sim.schedule(1.0, got.append, "own timer")
        sim.run()
        tracer.exit()
    finally:
        installed.remove()
    assert len(got) == 2
    for metric in ("net.sim_loop_s", "net.schedule_s", "net.send_s",
                   "net.deliver_s", seams.DRIVER):
        assert tracer.calls[metric] >= 1, metric
    # arrive + process callbacks belong to repro.net; the handler and the
    # test's own timer are nobody's layer and fall to the driver
    assert tracer.calls["net.deliver_s"] == 2
    assert tracer.calls[seams.DRIVER] == 3
    assert seams.owner_package(sim.run) == "net"
    assert seams.owner_package(got.append) == ""
