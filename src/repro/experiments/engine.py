"""Parallel sweep engine: experiment points as data, fanned across cores.

Every figure/table sweep decomposes into independent *points* -- one
deterministic simulation per ``(protocol, kind, x, seed, params)`` tuple.
This module gives those points a first-class representation
(:class:`PointSpec`), one dispatch entry (:func:`run_point`) replacing
the four historical per-protocol signatures, and an executor
(:class:`Engine`) that fans points out over a process pool and memoizes
finished values in an on-disk JSON cache under ``results/cache/``.

Determinism is the contract: every point derives all randomness from
``DeterministicRNG(seed, ...)``, so ``jobs=4`` is bit-identical to
``jobs=1`` and a cached value is bit-identical to a recomputed one.
Cache keys hash the spec together with ``repro.__version__``, so
bumping the package version invalidates every cached point.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.common.errors import ConfigurationError

#: Default location of the on-disk point cache (relative to the CWD;
#: the CLI's ``--cache-dir`` and ``Engine(cache_dir=...)`` override it).
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: Point kinds understood by :func:`run_point`.
POINT_KINDS = ("latency", "traffic", "tps", "era-churn", "verify", "pack",
               "agg")

#: Protocols understood by :func:`run_point`.
PROTOCOLS = ("pbft", "gpbft")


@dataclass(frozen=True, slots=True)
class PointSpec:
    """One experiment point: everything a worker needs to reproduce it.

    Attributes:
        protocol: ``"pbft"`` or ``"gpbft"``.
        kind: one of :data:`POINT_KINDS`.
        x: the sweep position -- a node count for latency/traffic/tps
            points, the switch interval (seconds) for era-churn points.
        seed: root of every ``DeterministicRNG`` stream in the point.
        params: extra keyword arguments for the point implementation,
            stored as a sorted tuple of ``(key, value)`` pairs so the
            spec stays hashable and canonically ordered.
    """

    protocol: str
    kind: str
    x: float
    seed: int
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, protocol: str, kind: str, x: float, seed: int = 0,
             **params) -> "PointSpec":
        """Build a spec; ``None``-valued params are dropped.

        Raises:
            ConfigurationError: on an unknown protocol or kind.
        """
        if protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        if kind not in POINT_KINDS:
            raise ConfigurationError(f"unknown point kind {kind!r}")
        kept = tuple(sorted((k, v) for k, v in params.items() if v is not None))
        return cls(protocol=protocol, kind=kind, x=float(x), seed=int(seed),
                   params=kept)

    def kwargs(self) -> dict:
        """The extra params as a keyword-argument dict."""
        return dict(self.params)

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {
            "protocol": self.protocol,
            "kind": self.kind,
            "x": self.x,
            "seed": self.seed,
            "params": {k: v for k, v in self.params},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.make(data["protocol"], data["kind"], data["x"],
                        data["seed"], **data.get("params", {}))

    def cache_key(self) -> str:
        """Stable cache identity: spec fields plus ``repro.__version__``.

        Any change to the spec *or* to the package version yields a new
        key, so stale values can never be served across releases.
        """
        payload = json.dumps(
            {"spec": self.to_json(), "version": repro.__version__},
            sort_keys=True, separators=(",", ":"),
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()[:20]
        return f"{self.protocol}-{self.kind}-x{self.x:g}-s{self.seed}-{digest}"


def run_point(spec: PointSpec) -> float | list[float] | dict:
    """Run one experiment point; the single dispatch behind every sweep.

    Each kind has one body; latency, traffic and tps take the protocol,
    verify reads it from its schedule, and the rest are G-PBFT only.

    Returns:
        A list of per-transaction samples for latency points, a single
        float for traffic (KB), tps (tx/s) and era-churn (s) points,
        and a result dict for verify (monitored schedule), pack
        (scenario outcome) and agg (aggregated city-scale day) points.

    Raises:
        ConfigurationError: when no body serves the (protocol, kind) pair.
    """
    # imported lazily: runner/extensions/verify import this module for Engine
    from repro.experiments import extensions, runner
    from repro.verify import explorer as verify_explorer
    from repro.workloads import packs as workload_packs

    protocol, n, seed, kwargs = spec.protocol, int(spec.x), spec.seed, spec.kwargs()
    if protocol != "gpbft" and spec.kind in ("era-churn", "pack", "agg"):
        raise ConfigurationError(
            f"no point implementation for protocol={protocol!r} "
            f"kind={spec.kind!r}")
    dispatch = {
        "latency": lambda: runner._latency_point(protocol, n, seed, **kwargs),
        "traffic": lambda: runner._traffic_point(protocol, n, seed, **kwargs),
        "tps": lambda: extensions._tps_point(protocol, n, seed, **kwargs),
        "era-churn": lambda: extensions._era_churn_point(
            spec.x, seed=seed, **kwargs),
        "verify": lambda: verify_explorer._verify_point(n, seed, **kwargs),
        "pack": lambda: workload_packs._pack_point(n, seed, **kwargs),
        "agg": lambda: runner._gpbft_agg_point(n, seed, **kwargs),
    }
    return dispatch[spec.kind]()


def _execute_point(spec: PointSpec) -> tuple[float | list[float] | dict, float, int]:
    """Worker body: run a point and report (value, wall_s, sim events).

    Top-level so it pickles into :class:`ProcessPoolExecutor` workers.
    """
    from repro.experiments import scenario

    started = time.perf_counter()
    value = run_point(spec)
    wall_s = time.perf_counter() - started
    return value, wall_s, scenario.last_event_count()


@dataclass(frozen=True, slots=True)
class PointRun:
    """Telemetry for one point the engine served (computed or cached)."""

    key: str
    wall_s: float
    events: int
    cached: bool


@dataclass
class EngineTelemetry:
    """Counters the engine accumulates across :meth:`Engine.map` calls."""

    cache_hits: int = 0
    cache_misses: int = 0
    runs: list[PointRun] = field(default_factory=list)

    @property
    def points_executed(self) -> int:
        """Points actually simulated (cache misses that ran)."""
        return sum(1 for r in self.runs if not r.cached)

    @property
    def compute_wall_s(self) -> float:
        """Summed per-point wall clock of executed points (not elapsed)."""
        return sum(r.wall_s for r in self.runs if not r.cached)

    @property
    def events_processed(self) -> int:
        """Summed simulator events across executed points."""
        return sum(r.events for r in self.runs if not r.cached)


class Engine:
    """Maps :class:`PointSpec` to values over a process pool + disk cache.

    Args:
        jobs: worker processes; ``1`` runs points in-process (no pool,
            fully steppable under a debugger).
        cache_dir: directory of per-key JSON cache files (defaults to
            ``results/cache/``).
        use_cache: when False, never read nor write cache files.
    """

    def __init__(self, jobs: int = 1, cache_dir: Path | str | None = None,
                 use_cache: bool = True) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        self.use_cache = use_cache
        self.telemetry = EngineTelemetry()

    # -- cache ------------------------------------------------------------

    def _cache_path(self, spec: PointSpec) -> Path:
        return self.cache_dir / f"{spec.cache_key()}.json"

    def _cache_read(self, spec: PointSpec) -> float | list[float] | None:
        """The cached value of *spec*, or ``None`` on a miss.

        Only an entry this engine could have written for this spec at
        this version is trusted; anything else under the key (torn,
        foreign or hand-edited) is a miss and gets overwritten.
        """
        if not self.use_cache:
            return None
        try:
            data = json.loads(self._cache_path(spec).read_text())
        except (OSError, ValueError):  # ValueError: bad JSON or bad UTF-8
            return None
        if (not isinstance(data, dict)
                or data.get("spec") != spec.to_json()
                or data.get("version") != repro.__version__):
            return None
        return data.get("value")

    def _cache_write(self, spec: PointSpec, value, wall_s: float,
                     events: int) -> None:
        if not self.use_cache:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(spec)
        payload = json.dumps(
            {
                "spec": spec.to_json(),
                "version": repro.__version__,
                "value": value,
                "wall_s": wall_s,
                "events": events,
            },
            indent=1, sort_keys=True,
        )
        # atomic publish so concurrent invocations never see torn files
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)

    # -- execution --------------------------------------------------------

    def run(self, spec: PointSpec) -> float | list[float]:
        """Value of one point (cache-backed)."""
        return self.map([spec])[0]

    def map(self, specs) -> list[float | list[float]]:
        """Values of *specs*, in input order.

        Cached points are served from disk; the rest are simulated --
        across ``jobs`` processes when ``jobs > 1`` -- and written back.
        Duplicate specs in one call are computed once.
        """
        specs = list(specs)
        values: dict[PointSpec, float | list[float]] = {}
        misses: list[PointSpec] = []
        for spec in specs:
            if spec in values or spec in misses:
                continue
            cached = self._cache_read(spec)
            if cached is not None:
                values[spec] = cached
                self.telemetry.cache_hits += 1
                self.telemetry.runs.append(
                    PointRun(spec.cache_key(), 0.0, 0, cached=True))
            else:
                misses.append(spec)
        self.telemetry.cache_misses += len(misses)

        if misses and self.jobs == 1:
            for spec in misses:
                value, wall_s, events = _execute_point(spec)
                self._record(spec, value, wall_s, events, values)
        elif misses:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {spec: pool.submit(_execute_point, spec)
                           for spec in misses}
                for spec, future in futures.items():
                    value, wall_s, events = future.result()
                    self._record(spec, value, wall_s, events, values)
        return [values[spec] for spec in specs]

    def _record(self, spec, value, wall_s, events, values) -> None:
        values[spec] = value
        self.telemetry.runs.append(
            PointRun(spec.cache_key(), wall_s, events, cached=False))
        self._cache_write(spec, value, wall_s, events)

    def summary(self) -> str:
        """One-line cache/compute report for CLI output."""
        t = self.telemetry
        return (
            f"engine: {len(t.runs)} points "
            f"({t.cache_hits} cache hits, {t.cache_misses} misses), "
            f"jobs={self.jobs}, {t.compute_wall_s:.1f}s simulated compute, "
            f"{t.events_processed} simulator events"
        )
