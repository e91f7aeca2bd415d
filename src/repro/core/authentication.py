"""Algorithm 1: geographic authentication of endorsers and candidates.

A direct implementation of the paper's pseudo-code (section III-D):

* lines 2-14 re-authenticate every current committee member *v*:
  ``G <- G(v, t)``; fewer than ``n`` reports in the window, or any two
  reports with different coordinates, mark the endorser invalid for the
  next era;
* lines 15-26 qualify candidates *c*: enough reports, all at the same
  coordinates, makes the candidate a new endorser in the next era.

"Same coordinates" is evaluated at CSC precision (the paper compares
``lng``/``lat`` exactly; GPS jitter makes equality of the ~1 m^2 CSC
cell the practical reading).
The caller runs this every ``T`` seconds, as the paper's outer
``while IsEndorser()`` loop does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import ElectionConfig
from repro.core.election import ElectionTable


@dataclass(frozen=True, slots=True)
class AuthenticationResult:
    """Verdicts of one Algorithm-1 pass.

    Attributes:
        valid_endorsers: members that stay in the committee.
        invalid_endorsers: members to evict at the next era switch.
        qualified_candidates: devices to add at the next era switch.
        reasons: node -> short human-readable verdict reason.
    """

    valid_endorsers: tuple[int, ...]
    invalid_endorsers: tuple[int, ...]
    qualified_candidates: tuple[int, ...]
    reasons: dict[int, str] = field(default_factory=dict)


def _reports_consistent(reports) -> bool:
    """True iff every report claims the same CSC cell."""
    cells = {r.geohash() for r in reports}
    return len(cells) <= 1


def authenticate_geographic(
    table: ElectionTable,
    endorsers,
    candidates,
    now: float,
    config: ElectionConfig | None = None,
) -> AuthenticationResult:
    """Run one pass of Algorithm 1 over *endorsers* and *candidates*.

    Args:
        table: the election table holding every device's report history.
        endorsers: current committee member ids (the paper's V).
        candidates: applicant ids (the paper's C); typically
            ``table.eligible_candidates(now)`` minus current members.
        now: current simulated time.
        config: thresholds; defaults to the table's own config.

    Returns:
        The membership verdicts for the next era.
    """
    cfg = config or table.config
    reasons: dict[int, str] = {}
    valid: list[int] = []
    invalid: list[int] = []

    # lines 2-14: re-authenticate current members
    for v in sorted(endorsers):
        history = table.history(v)
        reports = history.window(now, cfg.audit_window_s) if history is not None else []
        if len(reports) < cfg.min_reports:
            invalid.append(v)
            reasons[v] = f"only {len(reports)} reports in window (< {cfg.min_reports})"
            continue
        if not _reports_consistent(reports):
            invalid.append(v)
            reasons[v] = "location changed during audit window"
            continue
        valid.append(v)
        reasons[v] = "re-authenticated"

    # lines 15-26: qualify candidates
    qualified: list[int] = []
    member_set = set(endorsers)
    for c in sorted(candidates):
        if c in member_set:
            continue
        history = table.history(c)
        reports = history.window(now, cfg.audit_window_s) if history is not None else []
        if len(reports) < cfg.min_reports:
            reasons.setdefault(c, f"only {len(reports)} reports in window")
            continue
        if not _reports_consistent(reports):
            reasons.setdefault(c, "moved during audit window")
            continue
        qualified.append(c)
        reasons[c] = "qualified"

    return AuthenticationResult(
        valid_endorsers=tuple(valid),
        invalid_endorsers=tuple(invalid),
        qualified_candidates=tuple(qualified),
        reasons=reasons,
    )
