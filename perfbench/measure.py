"""One measured run of one workload, in this process.

A run repeats *rounds* of the workload -- set up, one timed ``run`` call,
collect -- with identical inputs until the requested seconds have passed,
and reports medians over the rounds, each round's host seconds first
brought to reference speed (``perfbench/reference.py``).  With tracing off that gives the
end-to-end metrics.  With tracing on it runs two plain rounds (the second
is the reference), the workload's observability- or monitor-enabled
variant if it has one, and then rounds with the seam wrappers installed,
and gives every per-layer metric.

Because the rounds share their inputs, the simulated result must be the
same in each; a difference between rounds, between a plain and a traced
round, or between a plain round and its obs/monitor variant fails the
run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench import seams
from perfbench.reference import NOMINAL_S, reference_loop
from perfbench.spec import (
    DETERMINISTIC, END_TO_END, LAYERS, PER_LAYER, UNTRACED)
from perfbench.tracer import Tracer
from perfbench.workloads import BY_NAME, Outcome, Workload


@dataclass
class Round:
    """Host timings and outcome of one round."""

    setup_s: float
    wall_s: float
    ref_s: float  # the reference loop, mean of before and after the round
    outcome: Outcome
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Factor that turns this round's seconds into reference-speed ones."""
        return NOMINAL_S / self.ref_s


@dataclass
class Result:
    """What a run reports.

    ``metrics`` is what the driver reads (name -> value); ``detail`` is
    everything else the ``report`` command aggregates.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict[str, Any]
    problems: list[str]


def _round(cls: type[Workload], seed: int, variant: str = "plain",
           tracer: Tracer | None = None) -> Round:
    gc.collect()
    ref_before = reference_loop()
    t0 = time.perf_counter()
    workload = cls(seed, variant)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.enter(seams.DRIVER)
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.exit()
    t2 = time.perf_counter()
    ref_s = (ref_before + reference_loop()) / 2.0
    return Round(setup_s=t1 - t0, wall_s=t2 - t1, ref_s=ref_s,
                 outcome=workload.outcome())


def _traced_round(cls: type[Workload], seed: int) -> tuple[Round, int]:
    """A round with the seams installed: (round, seams that did not resolve)."""
    tracer = Tracer()
    installed = seams.install(tracer)
    try:
        result = _round(cls, seed, tracer=tracer)
    finally:
        installed.remove()
    total = tracer.total_s()
    layers = {name: tracer.self_s.get(name, 0.0)
              for name in seams.LAYER_SECONDS}
    own = {layer: sum(v for k, v in layers.items()
                      if k.startswith(layer + "."))
           for layer in LAYERS}
    layers["trace.coverage"] = (total - own["bench"]) / result.wall_s
    # per-operation cost in the unit of work each workload counts
    per_op = 1e6 / result.outcome.msgs
    if "codec.roundtrips" in result.outcome.sim:
        layers["codec.us_per_roundtrip"] = own["codec"] * per_op
    else:
        layers["net.us_per_msg"] = own["net"] * per_op
        layers["pbft.us_per_msg"] = own["pbft"] * per_op
    for layer in LAYERS:
        layers[f"{layer}.share"] = own[layer] / total
    result.layers = layers
    return result, len(installed.unresolved)


def _same_simulation(reference: Outcome, other: Outcome, what: str,
                     problems: list[str]) -> None:
    """Record a problem when *other* simulated something else."""
    if other.digest != reference.digest:
        problems.append(f"sim_digest differs {what}")
    for name in sorted(DETERMINISTIC):
        a, b = reference.sim.get(name, 0.0), other.sim.get(name, 0.0)
        if a != b:
            problems.append(f"{name} differs {what}: {a!r} != {b!r}")


def _simulated(outcome: Outcome, wall_s: float) -> dict[str, float]:
    """Counters and simulated metrics of a round, rates on *wall_s*."""
    sim = dict(outcome.sim)
    sim["commits_per_s"] = outcome.commits / wall_s
    sim["net.events_per_s"] = sim.get("net.events", 0) / wall_s
    return sim


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run workload *name* for about *seconds* and report."""
    cls = BY_NAME[name]
    problems: list[str] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + seconds
    first = _round(cls, seed)
    rounds = [first]
    traced: list[Round] = []
    layer_values: dict[str, float] = {}
    if trace:
        # the reference for the ratios below must not be the round that
        # paid the process's one-off costs (lazy imports, heap growth)
        first = _round(cls, seed)
        rounds.append(first)
        _same_simulation(rounds[0].outcome, first.outcome,
                         "between rounds 1 and 2", problems)
        if cls.extra_variant is not None:
            metric, variant = cls.extra_variant
            extra = _round(cls, seed, variant)
            rounds.append(extra)
            _same_simulation(first.outcome, extra.outcome,
                             f"with {variant} on", problems)
            layer_values[metric] = extra.wall_s / first.wall_s
        unresolved = 0
        while not traced or time.perf_counter() < deadline:
            one, unresolved = _traced_round(cls, seed)
            traced.append(one)
            _same_simulation(first.outcome, one.outcome,
                             "between the plain and the traced round", problems)
        for key in traced[0].layers:
            layer_values[key] = statistics.median(r.layers[key] for r in traced)
        layer_values["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for r in traced) / first.wall_s)
        layer_values["trace.unresolved_seams"] = unresolved
    else:
        while time.perf_counter() < deadline:
            rounds.append(_round(cls, seed))
            _same_simulation(first.outcome, rounds[-1].outcome,
                             f"between rounds 1 and {len(rounds)}", problems)
    wall1, cpu1 = time.perf_counter(), time.process_time()

    every = rounds + traced
    for index, one in enumerate(every):
        problems += [f"round {index + 1}: {p}" for p in one.outcome.problems]
    end_to_end = {
        "wall_s": statistics.median(r.wall_s * r.scale for r in rounds),
        "msgs_per_s": statistics.median(
            r.outcome.msgs / (r.wall_s * r.scale) for r in rounds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(r.setup_s * r.scale for r in every),
    }
    layer_values["host.raw_wall_s"] = statistics.median(
        r.wall_s for r in rounds)
    layer_values["host.ref_loop_s"] = statistics.median(
        r.ref_s for r in every)
    per_layer = {m.name: 0.0 for m in PER_LAYER}
    per_layer.update(_simulated(first.outcome, first.wall_s))
    per_layer.update(layer_values)
    unknown = sorted(set(per_layer) - {m.name for m in PER_LAYER})
    if unknown:
        problems.append(f"metrics not in the spec: {unknown}")
    if trace:
        metrics = {m.name: float(per_layer[m.name]) for m in PER_LAYER}
    else:
        metrics = {m.name: float(end_to_end[m.name]) for m in END_TO_END}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "wall_s_rounds": [r.wall_s for r in rounds],
        "ref_s_rounds": [r.ref_s for r in rounds],
        "setup_s_rounds": [r.setup_s for r in every],
        "cpu_over_wall": (cpu1 - cpu0) / (wall1 - wall0),
        "sim_digest": first.outcome.digest,
        "end_to_end": end_to_end,
        "per_layer": {k: v for k, v in per_layer.items()
                      if trace or k in UNTRACED},
    }
    for problem in problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    return Result(
        correct=not problems,
        attempted=sum(r.outcome.attempted for r in every),
        failed=sum(r.outcome.failed + r.outcome.violations for r in every),
        metrics=metrics, detail=detail, problems=problems)
