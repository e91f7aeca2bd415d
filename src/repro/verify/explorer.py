"""Seeded schedule exploration: hunt for invariant violations.

The explorer turns "does a bug exist?" into a parallel search problem.
Each :class:`Schedule` is a fully deterministic recipe for one
monitored simulation: protocol, committee size, seed, workload, optional
planted faults, and a set of message-level / node-level perturbations
(crashes, partitions, probabilistic drops, delay-reorders).  Schedules
fan out across the existing :class:`~repro.experiments.engine.Engine`
process pool as ``verify`` points; a schedule whose run raises an
:class:`~repro.verify.invariants.InvariantViolation` is recorded as a
JSON repro artifact and greedily shrunk to a minimal failing schedule
(fewer perturbations, fewer submissions) that still trips the same
monitor.

Every run also computes a *schedule fingerprint* -- a rolling hash over
the exact (time, callback) stream the simulator executed -- so
:mod:`repro.verify.replay` can prove that a replayed artifact followed
the original event order bit-for-bit.

Runs build, submit and run through :mod:`repro.experiments.scenario`.
The same run with monitors off and an observability facade attached is
what :func:`repro.obs.capture.capture_run` records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import repro
from repro.common.config import GPBFTConfig, TopologySpec, VerifyConfig
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_PBFT_EXECUTED
from repro.common.rng import DeterministicRNG
from repro.core.hierarchy import top_seats
from repro.experiments import scenario
from repro.experiments.engine import Engine, PointSpec
from repro.net.latency import LatencyModel
from repro.net.simulator import Simulator
from repro.pbft.faults import (
    CrashFaults,
    EquivocatingFaults,
    MuteFaults,
    QuorumUndercountFaults,
    XZoneBypassFaults,
)
from repro.verify.invariants import InvariantViolation

#: Default directory for failing-schedule repro artifacts.
DEFAULT_ARTIFACT_DIR = Path("results") / "repro"

#: Artifact format tag (checked by :mod:`repro.verify.replay`).
ARTIFACT_FORMAT = "repro.verify/schedule-artifact"

#: Named fault models a schedule may plant on a node.
FAULT_REGISTRY = {
    "quorum_undercount": QuorumUndercountFaults,
    "crash": partial(CrashFaults, True),
    "mute": MuteFaults,
    "equivocate": EquivocatingFaults,
    "xzone_bypass": XZoneBypassFaults,
}

#: Perturbation operations a schedule may contain.
PERTURBATION_OPS = ("crash", "partition", "drop", "delay")

#: Safety cap on simulator events per schedule run.
MAX_EVENTS_PER_SCHEDULE = 5_000_000


@dataclass(frozen=True)
class Perturbation:
    """One scheduled disturbance inside a run.

    Attributes:
        op: ``"crash"`` (node offline), ``"partition"`` (listed nodes
            split from the rest), ``"drop"`` (iid message drops), or
            ``"delay"`` (messages held back ``extra_s``, reordering
            them past later traffic).
        at: window start (simulated seconds).
        until: window end; crashes recover and partitions heal here.
        node: target node for ``crash``.
        nodes: the isolated group for ``partition``.
        p: per-message probability for ``drop`` / ``delay``.
        extra_s: added holding delay for ``delay``.
    """

    op: str
    at: float
    until: float = 0.0
    node: int = -1
    nodes: tuple[int, ...] = ()
    p: float = 0.0
    extra_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in PERTURBATION_OPS:
            raise ConfigurationError(f"unknown perturbation op {self.op!r}")
        for name in ("at", "until", "extra_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"perturbation {name} must be finite")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError("perturbation p must be in [0, 1]")
        if self.extra_s < 0:
            raise ConfigurationError("perturbation extra_s must be >= 0")
        if self.at < 0 or self.until < self.at:
            raise ConfigurationError(
                f"perturbation window [{self.at}, {self.until}) is invalid")

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {
            "op": self.op, "at": self.at, "until": self.until,
            "node": self.node, "nodes": list(self.nodes),
            "p": self.p, "extra_s": self.extra_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Perturbation":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            op=data["op"], at=data["at"], until=data.get("until", 0.0),
            node=data.get("node", -1), nodes=tuple(data.get("nodes", ())),
            p=data.get("p", 0.0), extra_s=data.get("extra_s", 0.0),
        )


@dataclass(frozen=True)
class Schedule:
    """A fully deterministic recipe for one monitored simulation run.

    Attributes:
        protocol: ``"pbft"`` or ``"gpbft"``.
        n: committee / deployment size.
        seed: root of every random stream in the run.
        submissions: transactions submitted (one every 0.75 s from
            ``t = 1``).
        horizon_s: simulated seconds to run.
        era_switch_at: when set (G-PBFT only), force an era switch at
            this time.
        perturbations: disturbances applied during the run.
        faults: planted fault models as ``(node_id, registry_name)``
            pairs (see :data:`FAULT_REGISTRY`).  In multi-zone
            schedules, ``xzone_bypass`` keys are zone indices; other
            fault keys are global node ids.
        zones: number of zones (gpbft only; > 1 builds a hierarchical
            deployment of ``n // zones`` nodes per zone).
    """

    protocol: str = "pbft"
    n: int = 4
    seed: int = 0
    submissions: int = 5
    horizon_s: float = 90.0
    era_switch_at: float | None = None
    perturbations: tuple[Perturbation, ...] = ()
    faults: tuple[tuple[int, str], ...] = ()
    zones: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in ("pbft", "gpbft"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.n < 4:
            raise ConfigurationError("schedules need n >= 4")
        if self.submissions < 1:
            raise ConfigurationError("schedules need >= 1 submission")
        if not math.isfinite(self.horizon_s):
            raise ConfigurationError("horizon_s must be finite")
        if self.horizon_s <= 0:
            raise ConfigurationError("horizon_s must be positive")
        if self.era_switch_at is not None:
            if self.protocol != "gpbft":
                raise ConfigurationError("era_switch_at requires protocol gpbft")
            if not math.isfinite(self.era_switch_at):
                raise ConfigurationError("era_switch_at must be finite")
            if self.era_switch_at < 0:
                raise ConfigurationError(
                    f"era_switch_at must be >= 0, got {self.era_switch_at}")
        if self.zones < 1:
            raise ConfigurationError("zones must be >= 1")
        if self.zones > 1:
            if self.protocol != "gpbft":
                raise ConfigurationError("multi-zone schedules require gpbft")
            if self.n % self.zones != 0 or self.n // self.zones < 4:
                raise ConfigurationError(
                    "n must split evenly into zones of >= 4 nodes")
        for _node, name in self.faults:
            if name not in FAULT_REGISTRY:
                raise ConfigurationError(f"unknown fault model {name!r}")

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {
            "protocol": self.protocol, "n": self.n, "seed": self.seed,
            "submissions": self.submissions, "horizon_s": self.horizon_s,
            "era_switch_at": self.era_switch_at,
            "perturbations": [p.to_json() for p in self.perturbations],
            "faults": [[node, name] for node, name in self.faults],
            "zones": self.zones,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            protocol=data["protocol"], n=data["n"], seed=data["seed"],
            submissions=data["submissions"], horizon_s=data["horizon_s"],
            era_switch_at=data.get("era_switch_at"),
            perturbations=tuple(
                Perturbation.from_json(p) for p in data.get("perturbations", ())),
            faults=tuple((node, name) for node, name in data.get("faults", ())),
            zones=data.get("zones", 1),
        )

    def canonical_json(self) -> str:
        """Canonical string form, used as the engine cache/param key."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    def without_perturbation(self, index: int) -> "Schedule":
        """Copy with perturbation *index* removed (shrink move)."""
        kept = tuple(p for i, p in enumerate(self.perturbations) if i != index)
        return dataclasses.replace(self, perturbations=kept)

    def without_fault(self, index: int) -> "Schedule":
        """Copy with planted fault *index* removed (shrink move)."""
        kept = tuple(f for i, f in enumerate(self.faults) if i != index)
        return dataclasses.replace(self, faults=kept)

    def with_submissions(self, submissions: int) -> "Schedule":
        """Copy with a smaller workload (shrink move)."""
        return dataclasses.replace(self, submissions=max(1, submissions))


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one schedule run (JSON-able; engine cache value).

    Attributes:
        ok: True iff no monitor fired.
        violation: :meth:`InvariantViolation.to_json` payload, or None.
        fingerprint: rolling hash of the executed event stream.
        events: simulator events processed.
        executed: ``pbft.executed`` events recorded (progress measure).
    """

    ok: bool
    violation: dict | None
    fingerprint: str
    events: int
    executed: int

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {
            "ok": self.ok, "violation": self.violation,
            "fingerprint": self.fingerprint, "events": self.events,
            "executed": self.executed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScheduleResult":
        """Rebuild from :meth:`to_json` output."""
        return cls(ok=data["ok"], violation=data.get("violation"),
                   fingerprint=data["fingerprint"], events=data["events"],
                   executed=data["executed"])


@dataclass
class RunOutcome:
    """A schedule run's result plus the host behind it.

    Only :attr:`result` crosses process boundaries; the host is for
    in-process inspection (shrinking, tests).
    """

    result: ScheduleResult
    host: object


class DelayWindowLatency(LatencyModel):
    """A latency model that holds messages back inside ``delay`` windows.

    While a window is open, a message's delay grows by the window's
    ``extra_s`` with probability ``p`` (the first open window whose coin
    lands wins), reordering it past later traffic.  ``sample_many`` is
    the base class's, one ``sample`` per destination, so a multicast
    stays one network pass and draws what its per-copy sends would.

    Args:
        base: the host's own latency model.
        windows: the schedule's ``delay`` perturbations.
        sim: the clock the windows are read against.
        rng: stream for the per-message coin flips.
    """

    def __init__(self, base: LatencyModel, windows: list[Perturbation],
                 sim: Simulator, rng: DeterministicRNG) -> None:
        self.base = base
        self.windows = windows
        self.sim = sim
        self.rng = rng

    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """The base delay, plus ``extra_s`` when an open window's coin lands."""
        delay = self.base.sample(src, dst, rng)
        now = self.sim.now
        for window in self.windows:
            if window.at <= now < window.until and self.rng.random() < window.p:
                return delay + window.extra_s
        return delay


class ScheduleFingerprint:
    """Rolling hash over the exact event stream a simulator executed.

    Installed as the simulator's step hook; each fired event contributes
    its absolute time and callback qualname.  Two runs with equal
    fingerprints executed the same schedule, which is how replay proves
    determinism.  Callbacks named in *skip* are left out, so a change to
    the network's own bookkeeping events can be told apart from a change
    to what handlers, timers and faults did; ``events`` counts the rest.
    """

    def __init__(self, skip: frozenset[str] = frozenset()) -> None:
        self._hash = hashlib.sha256(b"repro.verify/fingerprint")
        self._skip = skip
        self.events = 0

    def hook(self, event) -> None:
        """Step-hook callback: fold one fired event into the hash."""
        callback = event.callback
        name = getattr(callback, "__qualname__", type(callback).__name__)
        if name in self._skip:
            return
        self.events += 1
        self._hash.update(f"{event.time!r}|{name};".encode())

    def hexdigest(self) -> str:
        """The fingerprint so far (16 hex chars)."""
        return self._hash.hexdigest()[:16]


def _build_host(schedule: Schedule, obs=None):
    """Construct the cluster/deployment for *schedule*.

    Monitored by default; with *obs* the run is an instrumented capture
    instead, monitors off and the observability facade attached.
    """
    base = GPBFTConfig()
    config = base.replace(network=replace(base.network, seed=schedule.seed),
                          verify=VerifyConfig(monitors=obs is None))
    faults = {node: FAULT_REGISTRY[name]() for node, name in schedule.faults}
    if schedule.zones > 1:
        spec = TopologySpec.zoned(schedule.zones, schedule.n // schedule.zones,
                                  config=config, seed=schedule.seed,
                                  start_reports=False)
    else:
        spec = scenario.topology(schedule.protocol, schedule.n, config)
    return spec.build(faults=faults, obs=obs)


def _apply_perturbations(schedule: Schedule, host) -> None:
    """Arm every perturbation as a fault of the host's network.

    Crashes, partitions and ``drop`` windows are scheduled at their
    edges: a drop edge sets the network's loss to ``1 - prod(1 - p)``
    over the drop windows open from then on, the rate their independent
    per-window coins would give.  ``delay`` windows wrap the network's
    latency model in a :class:`DelayWindowLatency`.
    """
    sim, network = host.sim, host.network
    drops = [p for p in schedule.perturbations if p.op == "drop"]
    delays = [p for p in schedule.perturbations if p.op == "delay"]
    for p in schedule.perturbations:
        if p.op == "crash":
            sim.schedule_at(p.at, network.set_offline, p.node, True)
            sim.schedule_at(p.until, network.set_offline, p.node, False)
        elif p.op == "partition":
            groups = {node: 0 for node in p.nodes}
            sim.schedule_at(p.at, network.set_partition, groups)
            sim.schedule_at(p.until, network.set_partition, None)
        elif p.op == "drop":
            for edge in (p.at, p.until):
                kept = math.prod(1.0 - w.p for w in drops if w.at <= edge < w.until)
                sim.schedule_at(edge, network.set_drop_probability, 1.0 - kept)
    if delays:
        network.latency = DelayWindowLatency(
            network.latency, delays, sim,
            DeterministicRNG(schedule.seed, "verify/perturb"))


def run_schedule(schedule: Schedule, obs=None) -> RunOutcome:
    """Execute *schedule* under full invariant monitoring.

    Returns a :class:`RunOutcome`; a monitor violation is captured in
    ``outcome.result.violation`` rather than propagating.  With *obs*
    the run is instrumented instead of monitored (see
    :func:`_build_host`).

    The workload is one submission every 0.75 s from ``t = 1``: PBFT
    through :func:`~repro.experiments.scenario.submit`, G-PBFT as each
    node's own next transaction (``submit_from``, which a zoned host
    alternates across zones).
    """
    host = _build_host(schedule, obs)
    _apply_perturbations(schedule, host)
    fingerprint = ScheduleFingerprint()
    host.sim.set_step_hook(fingerprint.hook)
    for k in range(schedule.submissions):
        at = 1.0 + 0.75 * k
        if schedule.protocol == "pbft":
            scenario.submit(host, "pbft", f"vtx-{schedule.seed}", k, 0, at)
        else:
            ids = sorted(host.nodes)
            host.sim.schedule_at(at, host.submit_from, ids[k % len(ids)])
    if schedule.era_switch_at is not None:
        host.sim.schedule_at(schedule.era_switch_at, host.force_era_switch)

    violation: dict | None = None
    try:
        scenario.run(host.sim, schedule.horizon_s,
                     max_events=MAX_EVENTS_PER_SCHEDULE)
        if host.monitors is not None:
            host.monitors.check_final()
    except InvariantViolation as exc:
        violation = exc.to_json()
    host.sim.set_step_hook(None)

    result = ScheduleResult(
        ok=violation is None,
        violation=violation,
        fingerprint=fingerprint.hexdigest(),
        events=host.sim.events_processed,
        executed=host.events.count(EV_PBFT_EXECUTED),
    )
    return RunOutcome(result=result, host=host)


def _verify_point(n: int, seed: int, schedule: str) -> dict:
    """Engine-facing entry: run one JSON-encoded schedule.

    Registered under the ``verify`` point kind of
    :func:`repro.experiments.engine.run_point`; *n* and *seed* are part
    of the cache key and must match the schedule's own fields.
    """
    sched = Schedule.from_json(json.loads(schedule))
    if sched.n != n or sched.seed != seed:
        raise ConfigurationError(
            f"verify point (n={n}, seed={seed}) does not match its "
            f"schedule (n={sched.n}, seed={sched.seed})")
    return run_schedule(sched).result.to_json()


def schedule_spec(schedule: Schedule) -> PointSpec:
    """The engine :class:`PointSpec` that runs *schedule*."""
    return PointSpec.make(schedule.protocol, "verify", schedule.n,
                          schedule.seed, schedule=schedule.canonical_json())


def generate_schedule(
    protocol: str,
    n: int,
    seed: int,
    submissions: int = 5,
    horizon_s: float = 90.0,
    faults: tuple[tuple[int, str], ...] = (),
    max_perturbations: int = 3,
    zones: int = 1,
) -> Schedule:
    """Derive a seeded random schedule (same seed, same schedule).

    Perturbation count, kinds, windows, targets and probabilities all
    come from ``DeterministicRNG(seed, "verify/schedule")``, so the
    explorer's search space is reproducible from the seed list alone.

    In multi-zone schedules (``zones > 1``) crash and partition
    perturbations target the *backbone* -- the top-level committee
    seats -- since that is the network the faults act on there; a
    partition splits one zone's seats from the rest, the explorer's way
    of cutting zones apart.
    """
    # validated before any draw, so a bad size fails as a ConfigurationError
    base = Schedule(protocol=protocol, n=n, seed=seed, submissions=submissions,
                    horizon_s=horizon_s, faults=tuple(faults), zones=zones)
    rng = DeterministicRNG(seed, "verify/schedule")
    n_seats = top_seats(zones)
    count = rng.integers(1, max_perturbations + 1)
    perturbations: list[Perturbation] = []
    for _ in range(count):
        op = rng.choice(PERTURBATION_OPS)
        at = rng.uniform(0.5, max(1.0, horizon_s * 0.4))
        until = at + rng.uniform(1.0, max(2.0, horizon_s * 0.3))
        if op == "crash":
            pool = n if zones == 1 else n_seats
            perturbations.append(Perturbation(
                "crash", at, until, node=rng.integers(0, pool)))
        elif op == "partition":
            if zones > 1:
                target = rng.integers(0, zones)
                group = tuple(seat for seat in range(n_seats)
                              if seat % zones == target)
            else:
                ids = list(range(n))
                rng.shuffle(ids)
                group = tuple(sorted(
                    ids[:rng.integers(1, max(2, n // 2 + 1))]))
            perturbations.append(Perturbation(
                "partition", at, until, nodes=group))
        elif op == "drop":
            perturbations.append(Perturbation(
                "drop", at, until, p=rng.uniform(0.05, 0.4)))
        else:
            perturbations.append(Perturbation(
                "delay", at, until, p=rng.uniform(0.1, 0.5),
                extra_s=rng.uniform(0.05, 2.0)))
    era_switch_at = None
    if protocol == "gpbft" and rng.random() < 0.5:
        era_switch_at = rng.uniform(2.0, max(3.0, horizon_s * 0.5))
    return dataclasses.replace(base, era_switch_at=era_switch_at,
                               perturbations=tuple(perturbations))


def shrink_schedule(
    schedule: Schedule,
    monitor: str,
    budget: int = 48,
) -> tuple[Schedule, int]:
    """Greedily minimize a failing schedule, re-checking in-process.

    Shrink moves, attempted until a fixpoint or *budget* runs: remove
    one perturbation, remove one planted fault, halve the workload.  A
    move is kept only when the candidate still trips the *same* monitor
    -- so the planted fault of a mutation test always survives while
    irrelevant chaos is stripped away.

    Returns:
        ``(minimal_schedule, runs_spent)``.
    """
    runs = 0

    def still_fails(candidate: Schedule) -> bool:
        violation = run_schedule(candidate).result.violation
        return violation is not None and violation["monitor"] == monitor

    current = schedule
    improved = True
    while improved and runs < budget:
        improved = False
        for i in range(len(current.perturbations)):
            if runs >= budget:
                break
            candidate = current.without_perturbation(i)
            runs += 1
            if still_fails(candidate):
                current, improved = candidate, True
                break
        if improved:
            continue
        for i in range(len(current.faults)):
            if runs >= budget:
                break
            candidate = current.without_fault(i)
            runs += 1
            if still_fails(candidate):
                current, improved = candidate, True
                break
        if improved:
            continue
        if current.submissions > 1 and runs < budget:
            candidate = current.with_submissions(current.submissions // 2)
            runs += 1
            if still_fails(candidate):
                current, improved = candidate, True
    return current, runs


def write_artifact(
    path: Path,
    schedule: Schedule,
    result: ScheduleResult,
    minimal: Schedule | None = None,
    minimal_result: ScheduleResult | None = None,
    shrink_runs: int = 0,
) -> Path:
    """Write a failing schedule as a JSON repro artifact.

    The artifact embeds the original failing schedule and (when
    shrinking ran) the minimal one, each with its violation and
    fingerprint; :mod:`repro.verify.replay` re-runs the minimal entry.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": repro.__version__,
        "original": {"schedule": schedule.to_json(),
                     "result": result.to_json()},
        "minimal": {
            "schedule": (minimal or schedule).to_json(),
            "result": (minimal_result or result).to_json(),
        },
        "shrink_runs": shrink_runs,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


@dataclass
class ExplorationReport:
    """What one :func:`explore` call found.

    Attributes:
        explored: schedules run.
        failures: ``(schedule, result)`` pairs that tripped a monitor.
        minimal: shrunk form of the first failure (None when clean).
        shrink_runs: extra runs the shrinker spent.
        artifacts: repro artifact paths written.
    """

    explored: int = 0
    failures: list[tuple[Schedule, ScheduleResult]] = field(default_factory=list)
    minimal: Schedule | None = None
    shrink_runs: int = 0
    artifacts: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no schedule tripped any monitor."""
        return not self.failures

    def text(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [f"explored {self.explored} schedules: "
                 f"{len(self.failures)} violation(s)"]
        for schedule, result in self.failures:
            v = result.violation or {}
            lines.append(
                f"  seed {schedule.seed}: [{v.get('monitor')}] "
                f"{v.get('message')}")
        if self.minimal is not None:
            lines.append(
                f"  minimal repro (after {self.shrink_runs} shrink runs): "
                f"{len(self.minimal.perturbations)} perturbation(s), "
                f"{self.minimal.submissions} submission(s)")
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


def explore(
    protocol: str = "pbft",
    n: int = 4,
    seeds=range(8),
    submissions: int = 5,
    horizon_s: float = 90.0,
    faults: tuple[tuple[int, str], ...] = (),
    engine: Engine | None = None,
    out_dir: Path | str | None = None,
    shrink_budget: int = 48,
    zones: int = 1,
) -> ExplorationReport:
    """Fan seeded schedules across the engine and shrink any failure.

    One schedule per seed is generated by :func:`generate_schedule`,
    executed (in parallel when *engine* has ``jobs > 1``) under full
    monitoring, and every failing schedule is written as a repro
    artifact under *out_dir*.  The first failure is additionally shrunk
    in-process to a minimal schedule that trips the same monitor.
    """
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    out = Path(out_dir) if out_dir is not None else DEFAULT_ARTIFACT_DIR
    schedules = [
        generate_schedule(protocol, n, seed, submissions=submissions,
                          horizon_s=horizon_s, faults=faults, zones=zones)
        for seed in seeds
    ]
    values = eng.map([schedule_spec(s) for s in schedules])
    report = ExplorationReport(explored=len(schedules))
    for schedule, value in zip(schedules, values):
        result = ScheduleResult.from_json(value)
        if result.violation is not None:
            report.failures.append((schedule, result))

    for index, (schedule, result) in enumerate(report.failures):
        minimal = minimal_result = None
        if index == 0 and shrink_budget > 0:
            minimal, spent = shrink_schedule(
                schedule, result.violation["monitor"], budget=shrink_budget)
            minimal_result = run_schedule(minimal).result
            report.minimal, report.shrink_runs = minimal, spent + 1
        name = (f"violation-{schedule.protocol}-s{schedule.seed}-"
                f"{result.violation['monitor']}.json")
        report.artifacts.append(write_artifact(
            out / name, schedule, result, minimal=minimal,
            minimal_result=minimal_result,
            shrink_runs=report.shrink_runs if index == 0 else 0))
    return report
