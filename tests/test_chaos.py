"""Chaos testing: randomized fault schedules vs safety invariants.

Hypothesis generates arbitrary fault scripts (crashes, recoveries,
message-drop phases, partitions at random times) and the tests assert
the properties that must hold under *any* schedule:

* **agreement** -- no two non-crashed replicas ever execute different
  operation sequences (prefix consistency);
* **no forks** -- G-PBFT ledgers stay prefix-consistent;
* **validity** -- everything executed was actually submitted;
* **conditional liveness** -- if at most f replicas were faulty at any
  moment and drops eventually stop, submitted requests commit.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (
    GPBFTConfig,
    NetworkConfig,
    PBFTConfig,
    TopologySpec,
    VerifyConfig,
)
from repro.chain.block import Block
from repro.common.eventlog import EV_ERA_SWITCH_COMPLETED, EV_TX_COMMITTED
from repro.core.node import GPBFTNode
from repro.pbft import CrashFaults, RawOperation
from repro.verify.invariants import InvariantViolation

N_REPLICAS = 7  # f = 2
FAST_PBFT = PBFTConfig(view_change_timeout_s=5.0, request_retry_timeout_s=20.0)


def _config(seed: int) -> GPBFTConfig:
    # invariant monitors ride along on every chaos schedule: any safety
    # break raises mid-run with the offending trace window attached
    return GPBFTConfig(
        network=NetworkConfig(seed=seed),
        pbft=FAST_PBFT,
        verify=VerifyConfig(monitors=True),
    )


fault_script = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=200.0),          # when
        st.integers(min_value=0, max_value=N_REPLICAS - 1),  # which replica
        st.booleans(),                                       # crash / recover
    ),
    max_size=8,
)

submission_times = st.lists(
    st.floats(min_value=0.5, max_value=150.0), min_size=1, max_size=6
)


class TestPBFTChaos:
    @given(script=fault_script, submissions=submission_times,
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_agreement_and_validity_under_any_crash_schedule(
        self, script, submissions, seed
    ):
        faults = {i: CrashFaults() for i in range(N_REPLICAS)}
        cluster = TopologySpec.cluster(N_REPLICAS, 1, config=_config(seed)).build(faults=faults)
        for at, replica, crash in script:
            target = faults[replica]
            cluster.sim.schedule_at(
                at, target.crash if crash else target.recover
            )
        submitted = set()
        for k, at in enumerate(sorted(submissions)):
            op_id = f"chaos-{k}"
            submitted.add(op_id)
            cluster.sim.schedule_at(at, cluster.any_client.submit,
                                    RawOperation(op_id))
        cluster.run(until=800.0)

        # validity: nothing executes that was not submitted (null ops from
        # view-change gap filling excepted)
        for node in cluster.replicas:
            for op_id in cluster.committed_ops(node):
                assert op_id in submitted or op_id.startswith("null:")
        # agreement: executed sequences are prefix-consistent
        sequences = [tuple(cluster.committed_ops(n)) for n in cluster.replicas]
        shortest = min(len(s) for s in sequences)
        assert len({s[:shortest] for s in sequences}) == 1
        cluster.monitors.check_final()

    @given(crash_at=st.floats(min_value=1.0, max_value=50.0),
           recover_after=st.floats(min_value=5.0, max_value=100.0),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_liveness_with_at_most_f_transient_crashes(
        self, crash_at, recover_after, seed
    ):
        # exactly f = 2 replicas crash and later recover: every request
        # must eventually commit
        faults = {5: CrashFaults(), 6: CrashFaults()}
        cluster = TopologySpec.cluster(N_REPLICAS, 1, config=_config(seed)).build(faults=faults)
        for _, target in sorted(faults.items()):
            cluster.sim.schedule_at(crash_at, target.crash)
            cluster.sim.schedule_at(crash_at + recover_after, target.recover)
        rid = cluster.submit(RawOperation("must-commit"))
        cluster.sim.schedule_at(crash_at + 1.0, cluster.any_client.submit,
                                RawOperation("mid-crash"))
        cluster.run(until=3000.0)
        assert rid in cluster.any_client.completed
        assert len(cluster.any_client.completed) == 2
        assert cluster.all_agree()
        cluster.monitors.check_final()

    @given(drop=st.floats(min_value=0.0, max_value=0.15),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_agreement_under_random_message_loss(self, drop, seed):
        cluster = TopologySpec.cluster(N_REPLICAS, 1, config=_config(seed)).build()
        cluster.network.set_drop_probability(drop)
        for k in range(4):
            cluster.sim.schedule_at(1.0 + 10.0 * k, cluster.any_client.submit,
                                    RawOperation(f"lossy-{k}"))
        cluster.run(until=2000.0)
        sequences = [tuple(cluster.committed_ops(n)) for n in cluster.replicas]
        shortest = min(len(s) for s in sequences)
        assert len({s[:shortest] for s in sequences}) == 1
        cluster.monitors.check_final()


RECORDED_FORKS = [
    [(1.0, 0, True), (1.0, 2, True), (2.0, 0, False), (22.0, 2, False)],
    [(1.0, 1, True), (2.0, 0, True), (2.0, 1, False)],
]


def _run_crash_script(script, seed):
    """Six endorsers crash and recover as *script* says while three
    devices submit at t = 1, 21 and 41; returns the deployment at 800 s."""
    faults = {i: CrashFaults() for i in range(6)}
    dep = TopologySpec.single(
        9, 6, config=_config(seed), seed=seed, start_reports=False).build(faults=faults)
    for at, replica, crash in script:
        if replica < 6:
            target = faults[replica]
            dep.sim.schedule_at(at, target.crash if crash else target.recover)
    for k, device in enumerate((6, 7, 8)):
        dep.sim.schedule_at(1.0 + 20.0 * k, dep.submit_from, device)
    dep.run(until=800.0)
    return dep


class TestGPBFTChaos:
    # derandomized and without an example database: a run that found the
    # fork pinned below would otherwise replay it from .hypothesis/ forever
    @given(script=fault_script, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    def test_ledgers_never_fork_under_crash_schedules(self, script, seed):
        dep = _run_crash_script(script, seed)
        assert dep.ledgers_consistent()
        dep.monitors.check_final()

    # the two recorded schedules that forked the ledgers while a block
    # header took the replica's local commit view: replicas commit a
    # re-proposed request in different views.  Omission faults beyond f
    # may cost liveness, never safety.
    @pytest.mark.parametrize("script", RECORDED_FORKS, ids=["two-crashed-at-once", "three-step"])
    def test_recorded_crash_scripts_do_not_fork_the_ledgers(self, script):
        for seed in range(100):
            assert _run_crash_script(script, seed).ledgers_consistent(), seed

    def test_a_header_in_the_local_view_fails_at_the_commit(self, monkeypatch):
        # plant the old bug: the header takes the executing replica's
        # view and that view's primary; the streaming check must stop
        # the run at the first diverging tx.committed, not at finish
        executing = []
        execute_tx = GPBFTNode._execute_tx
        assemble = Block.assemble

        def planted_execute_tx(node, tx, seq):
            executing.append(node)
            try:
                execute_tx(node, tx, seq)
            finally:
                executing.pop()

        def planted_assemble(**fields):
            if executing:  # not genesis
                node = executing[-1]
                view = node.replica.view
                fields.update(view=view, proposer=node.committee[view % len(node.committee)])
            return assemble(**fields)

        monkeypatch.setattr(GPBFTNode, "_execute_tx", planted_execute_tx)
        monkeypatch.setattr(Block, "assemble", planted_assemble)
        with pytest.raises(InvariantViolation) as caught:
            _run_crash_script(RECORDED_FORKS[0], seed=0)
        assert caught.value.monitor == "prefix-consistency"
        assert caught.value.event.kind == EV_TX_COMMITTED
        # the digest rides as bytes and is written out as hex
        report = json.loads(json.dumps(caught.value.to_json()))
        assert report["event"]["data"]["digest"] == caught.value.event.data["digest"].hex()

    def test_era_switch_under_partition_heals_without_fork(self):
        # an era switch proposed while the committee is split 2-2 cannot
        # gather a quorum; after the partition heals the switch must
        # commit exactly once, atomically, with no ledger fork -- the
        # era-atomicity and prefix-consistency monitors watch the whole
        # run
        dep = TopologySpec.single(
            6, 4, config=_config(17), seed=17, start_reports=False).build()
        dep.sim.schedule_at(1.0, dep.submit_from, 4)
        # devices must be listed explicitly: unlisted nodes fall into
        # the implicit group -1 and would be cut off from both halves
        groups = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        dep.sim.schedule_at(4.0, dep.network.set_partition, groups)
        dep.sim.schedule_at(5.0, dep.force_era_switch)
        dep.sim.schedule_at(40.0, dep.network.set_partition, None)
        dep.sim.schedule_at(90.0, dep.submit_from, 5)
        dep.run(until=600.0)

        switches = dep.events.of_kind(EV_ERA_SWITCH_COMPLETED)
        assert switches, "era switch never committed after the heal"
        assert all(e.at > 40.0 for e in switches), \
            "switch committed during the partition despite no quorum"
        completed = dep.completed_latencies()
        assert len(completed) >= 2  # both device transactions committed
        assert dep.ledgers_consistent()
        assert dep.nodes[0].era == 1
        dep.monitors.check_final()
