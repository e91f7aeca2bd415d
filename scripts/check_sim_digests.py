#!/usr/bin/env python3
"""Check that the benchmark workloads still simulate what the pin says.

    scripts/check_sim_digests.py [--workload W ...] [--write]

``scripts/sim_digests.json`` pins each ``perfbench`` workload's
``sim_digest`` at seeds 0 and 23.  For every workload and seed this
runs ``perfbench/run.py run --workload W --seed S --seconds 0 --out F``
in its own process from the repository root and compares the digest it
reports with the pin.  A digest folds in every count the simulation
produces, so a change that keeps it keeps the simulation; a behaviour
fix that moves it names the workloads and seeds it moved.

``--workload`` narrows the check to the named workloads (repeatable).
``--write`` rewrites the pin from the runs instead of comparing.

Exit codes: 0 every digest equals its pin (or the pin was written);
1 some differ or have no pin, each named on its own line; 2 a workload that
``perfbench`` does not know, named on the command line or in the pin,
before any run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "scripts" / "sim_digests.json"
SEEDS = ("0", "23")
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench.spec import WORKLOADS  # noqa: E402


def run_digest(workload: str, seed: int) -> str:
    """The ``sim_digest`` of one zero-length run in a fresh process."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "run", "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0 or not out.is_file():
            sys.exit(f"check_sim_digests: {workload} seed {seed} did not run:\n"
                     f"{proc.stderr}")
        return json.loads(out.read_text())["sim_digest"]


def differences(pinned: dict[str, dict[str, str]],
                measured: dict[str, dict[str, str]]) -> list[str]:
    """One line per workload and seed whose measured digest is not the pin."""
    lines = []
    for workload, by_seed in measured.items():
        for seed, digest in by_seed.items():
            pin = pinned.get(workload, {}).get(seed)
            if pin != digest:
                lines.append(f"{workload} seed {seed}: pinned "
                             f"{pin[:16] if pin else 'nothing'}, measured {digest[:16]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    """Compare (or ``--write``) the pinned digests; the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="check only this workload (repeatable)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pin from the runs instead of comparing")
    args = parser.parse_args(argv)
    pinned: dict[str, dict[str, str]] = json.loads(PIN.read_text())
    unknown = sorted({*args.workload, *pinned} - set(WORKLOADS))
    if unknown:
        print(f"check_sim_digests: unknown workload: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    measured = {name: {seed: run_digest(name, int(seed)) for seed in SEEDS}
                for name in names}
    for name, by_seed in measured.items():
        for seed, digest in by_seed.items():
            print(f"{name:20s} seed {seed:>3s}  {digest[:16]}")
    if args.write:
        pinned.update(measured)
        PIN.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"wrote {PIN.relative_to(ROOT)}")
        return 0
    differ = differences(pinned, measured)
    for line in differ:
        print(f"DIFFER {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
