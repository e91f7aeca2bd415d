"""Verdicts between two reports of the ``report`` command.

One row per workload and end-to-end metric, judged against the bound the
benchmark fixed for that metric:

``worse``         the new median is worse than the base's by more than
                  the bound;
``unresolved``    either side's run-to-run spread is wider than the bound
                  and the two sets of runs overlap, so the medians cannot
                  tell;
``better``        every new run reads better than every base run;
``within-bound``  anything else.

Simulated results are compared exactly (``sim_changed``), and the layers
whose share of traced wall moved most are listed, so a regression report
says which layer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from perfbench.report import SCHEMA
from perfbench.spec import END_TO_END, LAYERS
from perfbench.stats import spread


class ReportError(Exception):
    """A report file that cannot be read or does not match the schema."""


def load_report(path: Path) -> dict[str, Any]:
    """Read and validate one report.

    Raises:
        ReportError: naming the file and the offending field.
    """
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReportError(f"{path}: unreadable: {exc}") from exc
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ReportError(f"{path}: field 'schema' is not {SCHEMA!r}")
    workloads = report.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ReportError(f"{path}: field 'workloads' is missing or empty")
    for name, entry in workloads.items():
        where = f"{path}: workloads.{name}"
        if not isinstance(entry, dict):
            raise ReportError(f"{where} is not an object")
        if not isinstance(entry.get("sim_digest"), str):
            raise ReportError(f"{where}.sim_digest is missing")
        if not isinstance(entry.get("per_layer"), dict):
            raise ReportError(f"{where}.per_layer is missing")
        for metric in END_TO_END:
            row = entry.get("end_to_end", {}).get(metric.name)
            values = row.get("values") if isinstance(row, dict) else None
            if (not isinstance(values, list) or not values
                    or not all(isinstance(v, (int, float)) for v in values)
                    or not isinstance(row.get("median"), (int, float))):
                raise ReportError(
                    f"{where}.end_to_end.{metric.name} needs numeric "
                    "'values' and 'median'")
    return report


def verdict(base: list[float], new: list[float], base_median: float,
            new_median: float, better: str, bound: float) -> str:
    """Judge one metric; see the module docstring for the four verdicts."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new_median - base_median) / base_median
    # in "lower is better" terms: smaller is better after the sign flip
    b, n = [sign * v for v in base], [sign * v for v in new]
    if max(n) < min(b):
        return "better"
    overlap = min(n) <= max(b) and min(b) <= max(n)
    if overlap and max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "worse" if worsening > bound else "within-bound"


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[str], bool]:
    """Rows of the comparison, and whether any verdict is ``worse``."""
    lines = [f"{'workload':20s} {'metric':12s} {'base':>12s} {'new':>12s} "
             f"{'new/base':>9s}  verdict"]
    any_worse = False
    for name, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(name)
        if n_entry is None:
            lines.append(f"{name:20s} missing from the new report")
            continue
        for metric in END_TO_END:
            b_row = b_entry["end_to_end"][metric.name]
            n_row = n_entry["end_to_end"][metric.name]
            result = verdict(b_row["values"], n_row["values"], b_row["median"],
                             n_row["median"], metric.better,
                             metric.bound or 0.0)
            any_worse = any_worse or result == "worse"
            lines.append(
                f"{name:20s} {metric.name:12s} {b_row['median']:>12.5g} "
                f"{n_row['median']:>12.5g} "
                f"{n_row['median'] / b_row['median']:>9.3f}  {result}")
        changed = b_entry["sim_digest"] != n_entry["sim_digest"]
        shares = sorted(
            ((n_entry["per_layer"].get(f"{layer}.share", 0.0)
              - b_entry["per_layer"].get(f"{layer}.share", 0.0), layer)
             for layer in LAYERS), key=lambda pair: -abs(pair[0]))
        movers = ", ".join(f"{layer} {delta:+.3f}"
                           for delta, layer in shares[:3] if delta)
        lines.append(f"{name:20s} sim_changed={str(changed).lower()}"
                     + (f"  layer-share movers: {movers}" if movers else ""))
    return lines, any_worse


def compare_files(base_path: Path, new_path: Path) -> int:
    """Print the comparison; 0 clean, 1 on any ``worse``, 2 on bad input."""
    try:
        base, new = load_report(base_path), load_report(new_path)
    except ReportError as exc:
        print(f"perfbench compare: {exc}")
        return 2
    lines, any_worse = compare(base, new)
    print("\n".join(lines))
    return 1 if any_worse else 0
