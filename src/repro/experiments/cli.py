"""Command-line entry point: regenerate any figure or table.

Usage::

    gpbft-experiments fig3            # or: python -m repro.experiments fig3
    gpbft-experiments table3 --profile paper
    gpbft-experiments all --out results/
    gpbft-experiments fig4 --jobs 4   # fan sweep points across 4 cores

Profiles: ``quick`` (default, laptop-fast) or ``paper`` (the full
section-V scale: 202 nodes, 10 repetitions -- takes tens of minutes;
``--jobs N`` divides the wall time by roughly N).

Every sweep point is memoized under ``results/cache/`` keyed by its
spec and ``repro.__version__``; ``--no-cache`` bypasses it and
``--cache-dir`` relocates it (see docs/experiments.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.experiments import extensions, figures, tables
from repro.experiments.engine import DEFAULT_CACHE_DIR, Engine
from repro.experiments.profiles import PAPER, QUICK

_EXPERIMENTS = {
    "fig3": lambda p, e: figures.figure3(p, engine=e),
    "fig4": lambda p, e: figures.figure4(p, engine=e),
    "fig5": lambda p, e: figures.figure5(p, engine=e),
    "fig6": lambda p, e: figures.figure6(p, engine=e),
    "table2": lambda p, e: tables.table2(),
    "table3": lambda p, e: tables.table3(p, engine=e),
    "table4": lambda p, e: tables.table4(engine=e),
    # extension experiments beyond the paper's evaluation
    "throughput": lambda p, e: extensions.throughput_experiment(engine=e),
    "era-churn": lambda p, e: extensions.era_churn_experiment(engine=e),
    "table4-measured": lambda p, e: tables.table4_measured(),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="gpbft-experiments",
        description="Regenerate the G-PBFT paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--profile",
        choices=["quick", "paper"],
        default=os.environ.get("GPBFT_BENCH_PROFILE", "quick"),
        help="experiment scale (default: quick, or $GPBFT_BENCH_PROFILE)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write each report into (one .txt per id)",
    )
    parser.add_argument(
        "--svg",
        type=Path,
        default=None,
        help="directory to render figure experiments as SVG charts",
    )
    parser.add_argument(
        "--jobs",
        type=at_least(1),
        default=1,
        help="worker processes for sweep points (1 = in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk point cache (neither read nor write)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=DEFAULT_CACHE_DIR,
        help=f"point cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    return parser


def at_least(low: int):
    """argparse type for an integer flag that must be ``>= low``."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _non_negative_float(raw: str) -> float:
    """argparse type for ``--drain-slack``: a finite float >= 0."""
    value = float(raw)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def _cache_dir(raw: str) -> Path:
    """argparse type for ``--cache-dir``: a non-empty path."""
    if not raw:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return Path(raw)


def _write_svgs(name: str, result, profile_name: str, out_dir: Path) -> list[Path]:
    """Render a figure result's series to SVG files; tables are skipped."""
    from repro.metrics.svgplot import boxplot_chart, line_chart, save_svg

    series = getattr(result, "series", None)
    if not series:
        return []
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if name == "fig3":
        # per-series boxplots, like the paper's 3a / 3b panels
        for sweep in series:
            slug = sweep.name.lower().replace(" ", "-").replace("(", "").replace(")", "")
            path = out_dir / f"{name}_{slug}_{profile_name}.svg"
            save_svg(boxplot_chart(sweep, title=f"{name}: {sweep.name}"), path)
            written.append(path)
    else:
        path = out_dir / f"{name}_{profile_name}.svg"
        save_svg(line_chart(series, title=name), path)
        written.append(path)
    return written


def _agg_main(argv: list[str]) -> int:
    """The ``agg`` subcommand: one aggregated city-scale run, direct.

    Runs :func:`repro.experiments.runner._gpbft_agg_point` without the
    engine cache (a run with observability output files is about the
    artifacts, not the cached scalar) and prints its result dict as
    JSON.  The observability flags are ``repro.obs capture``'s
    (:func:`repro.obs.cli.add_obs_flags`): they switch on windowed
    frames, head sampling and the flight recorder for exactly this run.
    """
    from repro.experiments import runner
    from repro.obs import Observability
    from repro.obs.cli import add_obs_flags, obs_config, positive_float

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments agg",
        description="Run one aggregated city-scale day with optional "
                    "streaming observability.",
    )
    parser.add_argument("--requests", type=at_least(1), default=10_000,
                        help="total offered requests across all zones")
    parser.add_argument("--zones", type=at_least(2), default=8)
    parser.add_argument("--replicas-per-zone", type=at_least(4), default=4)
    parser.add_argument("--pool-size", type=at_least(1), default=4)
    parser.add_argument("--duration", type=positive_float, default=3_600.0,
                        help="simulated seconds of offered load")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=("diurnal", "poisson", "flash"),
                        default="diurnal")
    parser.add_argument("--drain-slack", type=_non_negative_float,
                        default=7_200.0,
                        help="simulated seconds to drain after the load ends")
    add_obs_flags(parser)
    args = parser.parse_args(argv)

    config = obs_config(args)
    result = runner._gpbft_agg_point(
        args.requests, args.seed,
        zones=args.zones,
        replicas_per_zone=args.replicas_per_zone,
        pool_size=args.pool_size,
        duration_s=args.duration,
        profile=args.profile,
        drain_slack_s=args.drain_slack,
        obs=Observability(config) if config is not None else None,
    )
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiment(s); returns a process exit code.

    The ``verify`` subcommand (schedule exploration / artifact replay)
    is routed to :func:`repro.verify.cli.main`, the ``packs``
    subcommand (adversarial scenario packs) to
    :func:`repro.workloads.packs.main`, and the ``agg`` subcommand
    (one city-scale run with streaming observability) to
    :func:`_agg_main` before experiment parsing -- see
    ``gpbft-experiments verify --help`` / ``... packs --help`` /
    ``... agg --help``.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "packs":
        from repro.workloads.packs import main as packs_main

        return packs_main(argv[1:])
    if argv and argv[0] == "agg":
        return _agg_main(argv[1:])
    args = build_parser().parse_args(argv)
    profile = PAPER if args.profile == "paper" else QUICK
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    engine = Engine(jobs=args.jobs, cache_dir=args.cache_dir,
                    use_cache=not args.no_cache)

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    for name in names:
        started = time.perf_counter()
        result = _EXPERIMENTS[name](profile, engine)
        elapsed = time.perf_counter() - started
        print(f"\n{'=' * 72}\n{name} ({args.profile} profile, {elapsed:.1f}s)\n{'=' * 72}")
        print(result.text)
        if args.out is not None:
            path = args.out / f"{name}_{args.profile}.txt"
            path.write_text(result.text + "\n")
            print(f"[written to {path}]")
        if args.svg is not None:
            for path in _write_svgs(name, result, args.profile, args.svg):
                print(f"[chart written to {path}]")
    print(f"[{engine.summary()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
