"""Determinism tests: identical seeds must give byte-identical runs.

Reproducibility is the whole point of a simulation-based evaluation: the
figures in EXPERIMENTS.md are only meaningful if rerunning the harness
regenerates them exactly.  Within one process a rerun must match; across
processes (:class:`TestAcrossProcesses`) the run must not depend on the
process at all: not on its hash seed, its global ``random`` state or
its wall clock.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chain.ledger import Ledger
from repro.common.config import TopologySpec
from repro.common.eventlog import EV_REQUEST_COMPLETED, EventLog
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft import RawOperation
from tests.test_recorded_kinds import CASES


def _pbft_trace(seed: int):
    from repro.common.config import GPBFTConfig, NetworkConfig

    config = GPBFTConfig(network=NetworkConfig(seed=seed))
    cluster = TopologySpec.cluster(7, 2, config=config).build()
    for i, cid in enumerate(sorted(cluster.clients) * 3):
        cluster.clients[cid].submit(RawOperation(f"op-{i}"))
    cluster.run(until=300)
    events = [(e.at, e.kind, e.node, tuple(sorted(e.data.items())))
              for e in cluster.events]
    return events, cluster.network.stats.bytes_sent


def _gpbft_trace(seed: int):
    dep = TopologySpec.single(10, 4, seed=seed).build()
    for device in (6, 7, 8):
        dep.submit_from(device)
    dep.run(until=300)
    events = [(e.at, e.kind, e.node, tuple(sorted(e.data.items())))
              for e in dep.events]
    heads = tuple(n.ledger.head.digest() for n in dep.endorsers)
    return events, dep.network.stats.bytes_sent, heads


class TestDeterminism:
    def test_pbft_run_is_reproducible(self):
        assert _pbft_trace(11) == _pbft_trace(11)

    def test_pbft_seed_changes_timing(self):
        events_a, _ = _pbft_trace(11)
        events_b, _ = _pbft_trace(12)
        # same protocol outcome, different network jitter draws
        assert [e[1] for e in events_a if e[1] == EV_REQUEST_COMPLETED] == \
               [e[1] for e in events_b if e[1] == EV_REQUEST_COMPLETED]
        assert events_a != events_b

    def test_gpbft_run_is_reproducible(self):
        trace_a = _gpbft_trace(21)
        trace_b = _gpbft_trace(21)
        assert trace_a == trace_b

    def test_gpbft_chain_digests_identical_across_replicas(self):
        _, _, heads = _gpbft_trace(22)
        assert len(set(heads)) == 1

    def test_traffic_accounting_reproducible(self):
        _, bytes_a = _pbft_trace(31)
        _, bytes_b = _pbft_trace(31)
        assert bytes_a == bytes_b


REPO_ROOT = Path(__file__).resolve().parent.parent

#: The two processes: (``PYTHONHASHSEED``, global ``random`` seed, seconds
#: added to ``time.time``, ``time.monotonic`` and ``time.perf_counter``).
SIDES = (("0", 1, 0.0), ("12345", 2, 1e9))

#: A child's program.  The clock is moved before anything from ``repro``
#: is imported, so a module that binds ``from time import ...`` gets the
#: moved clock too.
_CHILD = """\
import random, sys, time
seed, offset = int(sys.argv[1]), float(sys.argv[2])
for name in ("time", "monotonic", "perf_counter"):
    setattr(time, name, lambda real=getattr(time, name): real() + offset)
random.seed(seed)
from tests.test_determinism import probe
probe(sys.argv[3:])
"""


def _plant_set_send_order() -> None:
    """A set of ``str`` labels iterated into a send order."""
    multicast = SimulatedNetwork.multicast

    def planted(self, src, dsts, payload):
        labels = {f"node-{dst}" for dst in dsts}
        multicast(self, src, [int(label[5:]) for label in labels], payload)

    SimulatedNetwork.multicast = planted


def _plant_clock_in_timer() -> None:
    """``time.time()`` in a timer delay."""
    schedule = Simulator.schedule

    def planted(self, delay, callback, *args):
        return schedule(self, delay + time.time() * 1e-12, callback, *args)

    Simulator.schedule = planted


def _plant_random_tie_break() -> None:
    """``random.random()`` in a tie-break: events due at the same
    simulated time fire in a random order."""
    init = Simulator.__init__

    def planted(self):
        init(self)
        self._counter = iter(random.random, None)

    Simulator.__init__ = planted


PLANTS = {"set_send_order": _plant_set_send_order,
          "clock_in_timer": _plant_clock_in_timer,
          "random_tie_break": _plant_random_tie_break}


def _watch(cls, built: list) -> None:
    """Append every instance of *cls* constructed from now on to *built*."""
    init = cls.__init__

    def watched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    cls.__init__ = watched


def probe(plants: list[str]) -> None:
    """Run every case of ``test_recorded_kinds`` with *plants* applied
    and print one ``case digest events`` line per case.

    The digest covers every event of every :class:`EventLog` the case
    built, each network's bytes sent and each ledger's head.  Only a
    child process calls this: it patches classes for good.
    """
    for name in plants:
        PLANTS[name]()
    logs, networks, ledgers = [], [], []
    _watch(EventLog, logs)
    _watch(SimulatedNetwork, networks)
    _watch(Ledger, ledgers)
    for case_name, case in CASES.items():
        for built in (logs, networks, ledgers):
            built.clear()
        case()
        digest = hashlib.sha256()
        for log in logs:
            digest.update(repr(log.total_appended).encode())
            for e in log:
                digest.update(repr((e.at, e.kind, e.node,
                                    sorted(e.data.items()))).encode())
        for network in networks:
            digest.update(repr(network.stats.bytes_sent).encode())
        for ledger in ledgers:
            digest.update(ledger.head.digest())
        events = sum(log.total_appended for log in logs)
        print(case_name, digest.hexdigest(), events)


def digests_across_processes(*plants: str) -> list[dict[str, str]]:
    """Each side's case -> ``"digest events"``, from two children run
    side by side."""
    children = []
    for hash_seed, seed, offset in SIDES:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(REPO_ROOT / "src")}
        children.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(seed), str(offset), *plants],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True))
    try:
        outputs = [child.communicate(timeout=300) for child in children]
    finally:
        for child in children:
            child.kill()  # a no-op on a child that has exited
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    return [dict(line.split(" ", 1) for line in out.splitlines())
            for out, _ in outputs]


class TestAcrossProcesses:
    """Two processes that differ in hash seed, global ``random`` seed
    and wall clock run every topology and mode to the same digests."""

    def test_every_case_is_independent_of_the_process(self):
        a, b = digests_across_processes()
        assert list(a) == list(CASES)
        assert {case for case in a if a[case] != b[case]} == set()

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_a_planted_dependence_on_the_process_fails_the_check(self, plant):
        a, b = digests_across_processes(plant)
        assert list(a) == list(CASES)
        assert {case for case in a if a[case] != b[case]}, plant
