"""Deterministic replay of saved failing schedules.

An explorer artifact (see
:func:`repro.verify.explorer.write_artifact`) pins a failing schedule
together with its violation and schedule fingerprint.  :func:`replay_artifact`
re-runs the minimal schedule and declares the artifact *reproduced*
when the same monitor fires again **and** the event-stream fingerprint
matches bit-for-bit -- proving the replay followed the original
schedule, not merely a similar one.  The summary ends with the
violation's trace window: the last events the monitor saw before it
fired.

Used by ``python -m repro.experiments verify --replay <artifact>`` and
the regression tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.verify.explorer import (
    ARTIFACT_FORMAT,
    RunOutcome,
    Schedule,
    ScheduleResult,
    run_schedule,
)


def load_artifact(path: Path | str) -> dict:
    """Load and structurally validate a repro artifact.

    Raises:
        ConfigurationError: when the file is unreadable, not JSON, not
            a ``repro.verify`` schedule artifact, or its replayed entry
            has a missing or ill-typed ``schedule``/``result`` field.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or a non-UTF-8 file
        raise ConfigurationError(f"artifact {path} is not JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != ARTIFACT_FORMAT:
        raise ConfigurationError(
            f"artifact {path} is not a {ARTIFACT_FORMAT} file")
    if "minimal" not in data and "original" not in data:
        raise ConfigurationError(f"artifact {path} holds no schedule")
    _replayed_entry(data, path)
    return data


def _replayed_entry(artifact: dict, path: Path) -> tuple[Schedule, ScheduleResult]:
    """The schedule and recorded result replay re-runs: the minimal
    entry, else the original.

    Raises:
        ConfigurationError: naming the first field that is missing or
            does not parse.
    """
    key = "minimal" if artifact.get("minimal") else "original"
    entry = artifact.get(key)
    parsed = []
    for name, cls in (("schedule", Schedule), ("result", ScheduleResult)):
        label = f"{key}.{name}"
        value = entry.get(name) if isinstance(entry, dict) else None
        if not isinstance(value, dict):
            raise ConfigurationError(
                f"artifact {path}: {label} is missing or not an object")
        try:
            parsed.append(cls.from_json(value))
        except KeyError as exc:
            raise ConfigurationError(
                f"artifact {path}: {label} has no field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(
                f"artifact {path}: {label} is ill-typed: {exc}") from exc
    schedule, result = parsed
    return schedule, result


@dataclass
class ReplayResult:
    """Outcome of replaying one artifact.

    Attributes:
        reproduced: same monitor fired and the fingerprints match.
        expected: the artifact's recorded :class:`ScheduleResult`.
        actual: the replayed run's result.
        outcome: the live :class:`RunOutcome` for post-mortem inspection.
    """

    reproduced: bool
    expected: ScheduleResult
    actual: ScheduleResult
    outcome: RunOutcome

    def summary(self) -> str:
        """Human-readable replay report ending with the trace window."""
        lines = [
            ("reproduced" if self.reproduced else "NOT reproduced")
            + f": fingerprint {self.actual.fingerprint} "
            f"(expected {self.expected.fingerprint})",
        ]
        expected_monitor = (self.expected.violation or {}).get("monitor")
        actual_monitor = (self.actual.violation or {}).get("monitor")
        lines.append(f"monitor: {actual_monitor} (expected {expected_monitor})")
        violation = self.actual.violation
        if violation is not None:
            lines.append(f"violation: {violation['message']}")
            lines.append("trace window (oldest first):")
            for event in violation["trace"]:
                data = " ".join(f"{k}={v}" for k, v in event["data"].items())
                lines.append(f"{event['at']:10.3f}  n{event['node']:<4} "
                             f"{event['kind']:<24} {data}".rstrip())
        return "\n".join(lines)


def replay_artifact(path: Path | str) -> ReplayResult:
    """Re-run an artifact's minimal schedule.

    The replay *reproduces* the artifact when the violation outcome
    (same monitor, or clean in both) and the schedule fingerprint both
    match the recorded run.
    """
    schedule, expected = _replayed_entry(load_artifact(path), Path(path))
    outcome = run_schedule(schedule)
    actual = outcome.result
    same_monitor = (
        (actual.violation or {}).get("monitor")
        == (expected.violation or {}).get("monitor")
    )
    reproduced = same_monitor and actual.fingerprint == expected.fingerprint
    return ReplayResult(reproduced=reproduced, expected=expected,
                        actual=actual, outcome=outcome)
