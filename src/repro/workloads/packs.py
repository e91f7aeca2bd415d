"""Adversarial scenario packs with machine-checked expected outcomes.

Each pack is a packaged end-to-end scene built on the heterogeneous
device profiles (:mod:`repro.workloads.profiles`) plus the fault,
mobility, and Sybil machinery, paired with an :class:`ExpectedOutcome`
assertion -- a commit-rate floor, invariant monitors clean (or a named
violation expected), era-switch count bounds, and named non-vacuity
counters.  That makes every scenario a regression test: packs run as
parametrized pytest cases in tier 1 and from the command line via
``python -m repro.experiments packs``.

The four shipped packs:

* **regional_blackout** -- one zone of a 2-zone hierarchy loses all
  availability mid-run; the surviving zone keeps committing and the
  dark zone recovers after the window.
* **flash_crowd** -- a stadium-scale arrival spike hits a committee of
  constrained gateway-class endorsers; everything still commits.
* **sybil_drip** -- an attacker drips Sybil identities in under the
  committee cap over hours; the admission filter rejects their reports
  and they never win a seat (a control run without the filter proves
  the campaign would otherwise succeed).
* **churn_storm** -- endorsers keep going mobile and getting evicted
  while settled devices are elected in their place; consensus survives
  repeated era switches.

Every pack run is one engine point (``kind="pack"``), so outcomes are
recorded through the cached point API and reruns hit the on-disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
    VerifyConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_GEO_REPORT_REJECTED
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, Region
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.mobility import MobilityDriver, RandomWaypointModel
from repro.workloads.profiles import (
    FleetMix,
    GATEWAY_CLASS,
    schedule_blackout,
)


@dataclass(frozen=True, slots=True)
class ExpectedOutcome:
    """Machine-checked assertion over a pack's measured dict.

    Attributes:
        min_commit_rate: floor on ``measured["commit_rate"]``.
        expect_violation: monitor name a run is expected to trip;
            ``None`` (default) requires the invariant monitors clean.
        min_era_switches: lower bound on ``measured["era_switches"]``.
        max_era_switches: upper bound, or ``None`` for unbounded.
        require_positive: measured keys that must be > 0 -- the named
            non-vacuity counters (e.g. the Sybil pack requires rejected
            reports, proving detection actually fired).
        require_zero: measured keys that must equal 0 (e.g. Sybil
            committee seats under protection).
    """

    min_commit_rate: float | None = None
    expect_violation: str | None = None
    min_era_switches: int = 0
    max_era_switches: int | None = None
    require_positive: tuple[str, ...] = ()
    require_zero: tuple[str, ...] = ()

    def check(self, measured: dict) -> list[str]:
        """Failures of *measured* against this outcome (empty = pass)."""
        failures: list[str] = []
        if self.min_commit_rate is not None:
            rate = measured.get("commit_rate")
            if rate is None or rate < self.min_commit_rate:
                failures.append(
                    f"commit_rate {rate} below floor {self.min_commit_rate}")
        violation = measured.get("violation")
        if self.expect_violation is None:
            if violation:
                failures.append(f"unexpected invariant violation: {violation}")
        elif violation != self.expect_violation:
            failures.append(
                f"expected violation {self.expect_violation!r}, "
                f"got {violation!r}")
        switches = int(measured.get("era_switches", 0))
        if switches < self.min_era_switches:
            failures.append(
                f"era_switches {switches} below minimum {self.min_era_switches}")
        if self.max_era_switches is not None and switches > self.max_era_switches:
            failures.append(
                f"era_switches {switches} above maximum {self.max_era_switches}")
        for key in self.require_positive:
            if not measured.get(key, 0) > 0:
                failures.append(
                    f"{key} = {measured.get(key)} (expected > 0)")
        for key in self.require_zero:
            if measured.get(key, 0) != 0:
                failures.append(
                    f"{key} = {measured.get(key)} (expected 0)")
        return failures

    def assert_ok(self, measured: dict) -> None:
        """Raise ``AssertionError`` listing every failed check."""
        failures = self.check(measured)
        if failures:
            raise AssertionError("; ".join(failures))


@dataclass(frozen=True, slots=True)
class ScenarioPack:
    """One packaged adversarial scenario and its expected outcome.

    Attributes:
        name: registry key (also the engine point's ``pack`` param).
        title: human-readable one-liner.
        n: fleet size at quick scale (the engine point's ``x``).
        full_n: fleet size at full scale.
        expected: the machine-checked outcome assertion.
        seeds: seeds swept at full scale (quick runs the first only).
    """

    name: str
    title: str
    n: int
    full_n: int
    expected: ExpectedOutcome
    seeds: tuple[int, ...] = (0,)

    def points(self, scale: str = "quick") -> list:
        """The pack as a :class:`~repro.experiments.engine.PointSpec` sweep."""
        from repro.experiments.engine import PointSpec

        if scale not in ("quick", "full"):
            raise ConfigurationError(f"unknown pack scale {scale!r}")
        n = self.n if scale == "quick" else self.full_n
        seeds = self.seeds[:1] if scale == "quick" else self.seeds
        return [
            PointSpec.make("gpbft", "pack", n, seed, pack=self.name)
            for seed in seeds
        ]


@dataclass(frozen=True, slots=True)
class PackResult:
    """Outcome of running one pack: measurements plus verdicts."""

    pack: ScenarioPack
    measured: tuple[dict, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True iff every point satisfied the expected outcome."""
        return not self.failures


# -------------------------------------------------------------------------
# shared helpers
# -------------------------------------------------------------------------

def _monitored(config: GPBFTConfig) -> GPBFTConfig:
    """A copy of *config* with the invariant monitors armed."""
    return config.replace(verify=VerifyConfig(monitors=True))


def _run_guarded(host, until: float) -> str | None:
    """Run *host* to *until* via ``scenario.run``; tripped monitor or None."""
    # imported here: repro.workloads must not load repro.experiments
    from repro.experiments import scenario
    from repro.verify.invariants import InvariantViolation

    try:
        scenario.run(host.sim, until)
    except InvariantViolation as violation:
        return violation.monitor
    return None


def _era_switches(nodes) -> int:
    """Highest era reached across *nodes* (= completed era switches)."""
    return max((node.era for node in nodes.values()), default=0)


def _commit_stats(submitted: dict[str, float], completed: dict[str, float]):
    """``(committed, commit_rate)`` for tracked request ids."""
    done = sum(1 for rid in submitted if rid in completed)
    rate = done / len(submitted) if submitted else 1.0
    return done, rate


#: Shortened election/era clock shared by the election-driven packs;
#: the same scale the Sybil end-to-end tests use (hours, not days, so a
#: pack finishes in seconds of wall time while elections stay live).
FAST_ELECTION = ElectionConfig(
    stationary_hours=1.0, report_interval_s=900.0, min_reports=3,
    audit_window_s=7200.0,
)


# -------------------------------------------------------------------------
# pack implementations (engine point bodies)
# -------------------------------------------------------------------------

def _blackout_pack(n: int, seed: int) -> dict:
    """Regional blackout: zone 1's availability windows slam shut."""
    per_zone = max(4, n // 2)
    config = _monitored(GPBFTConfig())
    hier = TopologySpec.zoned(
        2, per_zone, config=config, seed=seed, start_reports=False).build()
    z0, z1 = hier.zones[0], hier.zones[1]
    dark_start, dark_end = 20.0, 50.0
    schedule_blackout(z1.network, sorted(z1.nodes), dark_start, dark_end)

    submitted: dict[str, float] = {}
    plan = [(z0, 5.0), (z0, 25.0), (z0, 40.0), (z0, 60.0),
            (z1, 5.0), (z1, 30.0), (z1, 65.0)]

    def _submit(zone, at: float) -> None:
        node_id = sorted(zone.nodes)[-1]
        submitted[zone.submit_from(node_id)] = at

    for zone, at in plan:
        hier.sim.schedule_at(at, _submit, zone, at)

    violation = _run_guarded(hier, until=100.0)
    completed = hier.completed_latencies()
    committed, rate = _commit_stats(submitted, completed)

    # classify by submit time against the blackout window: anything a
    # dark node submitted mid-window is lost; post-window submissions
    # prove the zone came back
    lost_in_dark = sum(
        1 for rid, at in submitted.items()
        if dark_start <= at < dark_end and rid not in completed)
    recovered = sum(
        1 for rid, at in submitted.items()
        if at >= dark_end and rid in completed)

    return {
        "submitted": len(submitted),
        "committed": committed,
        "commit_rate": rate,
        "era_switches": _era_switches(hier.nodes),
        "violation": violation,
        "blackout_lost": lost_in_dark,
        "recovered_commits": recovered,
    }


def _flash_crowd_pack(n: int, seed: int) -> dict:
    """Flash crowd: an arrival spike against constrained endorsers."""
    if n < 8:
        raise ConfigurationError("flash crowd needs at least 8 nodes")
    n_endorsers = 4
    mix = FleetMix.of((GATEWAY_CLASS, n_endorsers))
    config = _monitored(GPBFTConfig())
    dep = TopologySpec.single(
        n, n_endorsers, config=config, seed=seed, start_reports=False,
        profiles=mix).build()

    rng = DeterministicRNG(seed, "flash-crowd")
    submitted: dict[str, float] = {}
    arrivals = []
    for device in dep.devices:
        node = device

        def _submit(node=node) -> None:
            submitted[node.submit_transaction()] = dep.sim.now

        arrival = PoissonArrivals(
            dep.sim, _submit, rng.fork(f"spike/{node.node_id}"),
            mean_period_s=2.0)
        # the whole crowd arrives inside a ~10 s window (the spike)
        arrival.start(limit=2, phase=10.0 + rng.uniform(0.0, 5.0))
        arrivals.append(arrival)

    violation = _run_guarded(dep, until=400.0)
    completed = dep.completed_latencies()
    committed, rate = _commit_stats(submitted, completed)
    latencies = [completed[rid] for rid in submitted if rid in completed]

    return {
        "submitted": len(submitted),
        "committed": committed,
        "commit_rate": rate,
        "era_switches": _era_switches(dep.nodes),
        "violation": violation,
        "max_latency_s": max(latencies) if latencies else None,
    }


def _sybil_drip_pack(n: int, seed: int) -> dict:
    """Slow-drip Sybil campaign against the admission filter.

    Six identities join one every simulated hour -- always below the
    committee cap, mimicking a patient attacker -- and the same
    campaign is replayed without protection as a control, so the pack
    proves both that the defence holds *and* that the attack would
    otherwise succeed (non-vacuity).
    """
    drip_count = 6
    drip_period_s = 3600.0

    def _campaign(protection: bool):
        config = _monitored(GPBFTConfig(
            election=FAST_ELECTION,
            era=EraConfig(period_s=7200.0, switch_duration_s=0.25),
            committee=CommitteeConfig(min_endorsers=4, max_endorsers=40),
        ))
        # the dense downtown cell from the Sybil end-to-end suite:
        # devices sit within witness range of each other, so the
        # admission filter has honest witnesses to consult
        dense = Region.around(LatLng(22.3193, 114.1694), half_side_m=150.0)
        dep = TopologySpec.single(
            n, 4, config=config, seed=seed, region=dense,
            sybil_protection=protection, witness_range_m=200.0,
        ).build()
        attackers: list = []

        def _drip(k: int) -> None:
            attackers.append(dep.add_sybils(1, seed=1000 + k))

        for k in range(drip_count):
            dep.sim.schedule_at(1800.0 + k * drip_period_s, _drip, k)

        submitted: dict[str, float] = {}

        def _submit(at: float) -> None:
            submitted[dep.submit_from(sorted(dep.nodes)[n - 1])] = at

        for at in (500.0, 8000.0, 16000.0, 21000.0):
            dep.sim.schedule_at(at, _submit, at)

        violation = _run_guarded(dep, until=3 * 7200.0 + 100.0)
        sybil_ids = {identity.node_id
                     for attacker in attackers
                     for identity in attacker.identities}
        rejected = sum(
            1 for event in dep.events
            if event.kind == EV_GEO_REPORT_REJECTED
            and event.data["subject"] in sybil_ids)
        seats = len(sybil_ids & set(dep.committee))
        committed, rate = _commit_stats(submitted, dep.completed_latencies())
        return dep, sybil_ids, rejected, seats, committed, rate, violation

    # control: the identical campaign without the admission filter must
    # place Sybil identities on the committee, or the pack is vacuous
    # (run first: the engine reports the events of the last run)
    _, _, _, control_seats, _, _, _ = _campaign(False)
    dep, sybil_ids, rejected, seats, committed, rate, violation = _campaign(True)

    return {
        "submitted": 4,
        "committed": committed,
        "commit_rate": rate,
        "era_switches": _era_switches(dep.nodes),
        "violation": violation,
        "sybil_identities": len(sybil_ids),
        "sybil_reports_rejected": rejected,
        "sybil_committee_seats": seats,
        "control_sybil_seats": control_seats,
    }


def _churn_storm_pack(n: int, seed: int) -> dict:
    """Mobile endorser churn storm: repeated eviction and re-election."""
    if n < 10:
        raise ConfigurationError("churn storm needs at least 10 nodes")
    n_endorsers = max(4, n // 2)
    config = _monitored(GPBFTConfig(
        election=ElectionConfig(
            stationary_hours=0.25, report_interval_s=240.0, min_reports=3,
            audit_window_s=3600.0,
        ),
        era=EraConfig(period_s=1800.0, switch_duration_s=0.25),
    ))
    dep = TopologySpec.single(
        n, n_endorsers, config=config, seed=seed).build()

    rng = DeterministicRNG(seed, "churn-storm")
    region = dep.region

    def _mobilize(node_id: int) -> MobilityDriver:
        driver = MobilityDriver(
            dep.nodes[node_id],
            RandomWaypointModel(region, speed_min_mps=5.0, speed_max_mps=15.0,
                                pause_s=0.0),
            dep.sim, rng.fork(f"storm/{node_id}"), interval_s=120.0,
        )
        driver.start()
        return driver

    # wave 1: the top half of the genesis committee goes mobile at t=0
    wave1 = [_mobilize(node_id)
             for node_id in range(n_endorsers - 3, n_endorsers)]
    # wave 2 at mid-run: three replacements go mobile, wave 1 settles
    def _swap_waves() -> None:
        for driver in wave1:
            driver.stop()
        for node_id in range(n_endorsers, n_endorsers + 3):
            _mobilize(node_id)

    dep.sim.schedule_at(2700.0, _swap_waves)

    submitted: dict[str, float] = {}

    def _submit(at: float) -> None:
        submitted[dep.submit_from(sorted(dep.nodes)[-1])] = at

    for at in (600.0, 2400.0, 4800.0, 6600.0):
        dep.sim.schedule_at(at, _submit, at)

    violation = _run_guarded(dep, until=7300.0)
    committed, rate = _commit_stats(submitted, dep.completed_latencies())

    return {
        "submitted": len(submitted),
        "committed": committed,
        "commit_rate": rate,
        "era_switches": _era_switches(dep.nodes),
        "violation": violation,
        "final_committee": len(dep.committee),
    }


#: Dispatch table used by the engine's ``pack`` point kind.
_PACK_IMPLS = {
    "regional_blackout": _blackout_pack,
    "flash_crowd": _flash_crowd_pack,
    "sybil_drip": _sybil_drip_pack,
    "churn_storm": _churn_storm_pack,
}


def _pack_point(n: int, seed: int, pack: str) -> dict:
    """Engine entry: run scenario pack *pack* at size *n* and *seed*.

    Returns the pack's JSON-able measured dict (commit rate, era-switch
    count, tripped monitor, and pack-specific non-vacuity counters).
    """
    try:
        impl = _PACK_IMPLS[pack]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario pack {pack!r}; "
            f"expected one of {sorted(_PACK_IMPLS)}") from None
    return impl(int(n), int(seed))


# -------------------------------------------------------------------------
# registry + runner
# -------------------------------------------------------------------------

#: The shipped packs, by name (ordered cheapest-first for smoke runs).
PACKS: dict[str, ScenarioPack] = {
    pack.name: pack
    for pack in (
        ScenarioPack(
            name="regional_blackout",
            title="one zone's availability windows slam shut mid-run",
            n=16, full_n=32,
            expected=ExpectedOutcome(
                min_commit_rate=0.8,
                max_era_switches=0,
                require_positive=("blackout_lost", "recovered_commits"),
            ),
            seeds=(0, 1),
        ),
        ScenarioPack(
            name="flash_crowd",
            title="stadium-scale arrival spike vs constrained endorsers",
            n=16, full_n=32,
            expected=ExpectedOutcome(
                min_commit_rate=0.95,
                max_era_switches=0,
            ),
            seeds=(0, 1),
        ),
        ScenarioPack(
            name="sybil_drip",
            title="slow-drip Sybil campaign under the committee cap",
            n=10, full_n=10,
            expected=ExpectedOutcome(
                min_commit_rate=0.9,
                min_era_switches=1,
                max_era_switches=3,
                require_positive=("sybil_identities",
                                  "sybil_reports_rejected",
                                  "control_sybil_seats"),
                require_zero=("sybil_committee_seats",),
            ),
            seeds=(7, 9),
        ),
        ScenarioPack(
            name="churn_storm",
            title="mobile endorser churn storm across era switches",
            n=12, full_n=16,
            expected=ExpectedOutcome(
                min_commit_rate=0.75,
                min_era_switches=2,
                max_era_switches=6,
            ),
            seeds=(0, 1),
        ),
    )
}

#: The two cheapest packs, run by ``make packs-smoke``.
SMOKE_PACKS = ("regional_blackout", "flash_crowd")


def run_pack(pack: ScenarioPack, engine=None, scale: str = "quick") -> PackResult:
    """Run one pack through the (cache-backed) engine and check it."""
    from repro.experiments.engine import Engine

    engine = engine or Engine()
    specs = pack.points(scale)
    values = engine.map(specs)
    failures: list[str] = []
    for spec, measured in zip(specs, values):
        for failure in pack.expected.check(measured):
            failures.append(f"{pack.name}[seed={spec.seed}]: {failure}")
    return PackResult(pack=pack, measured=tuple(values),
                      failures=tuple(failures))


def main(argv: list[str] | None = None) -> int:
    """CLI body of ``python -m repro.experiments packs``."""
    import argparse

    from repro.experiments.engine import DEFAULT_CACHE_DIR, Engine

    parser = argparse.ArgumentParser(
        prog="gpbft-experiments packs",
        description="Run the adversarial scenario packs and check their "
                    "expected outcomes.",
    )
    parser.add_argument(
        "packs", nargs="*", metavar="PACK",
        help=f"packs to run (default: all of {', '.join(sorted(PACKS))})")
    parser.add_argument("--scale", choices=["quick", "full"], default="quick",
                        help="quick = one seed at reduced n (default)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for pack points")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk point cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="point cache directory")
    parser.add_argument("--list", action="store_true",
                        help="list the available packs and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(PACKS):
            print(f"{name:20s} {PACKS[name].title}")
        return 0

    names = args.packs or sorted(PACKS)
    unknown = [name for name in names if name not in PACKS]
    if unknown:
        parser.error(f"unknown pack(s): {', '.join(unknown)}")

    try:
        engine = Engine(jobs=args.jobs, cache_dir=args.cache_dir,
                        use_cache=not args.no_cache)
    except ConfigurationError as exc:
        parser.error(str(exc))
    all_ok = True
    for name in names:
        result = run_pack(PACKS[name], engine=engine, scale=args.scale)
        verdict = "PASS" if result.ok else "FAIL"
        print(f"[{verdict}] {name}: {PACKS[name].title}")
        for measured in result.measured:
            line = ", ".join(f"{key}={measured[key]}"
                             for key in sorted(measured))
            print(f"    {line}")
        for failure in result.failures:
            print(f"    !! {failure}")
        all_ok = all_ok and result.ok
    print(f"[{engine.summary()}]")
    return 0 if all_ok else 1
