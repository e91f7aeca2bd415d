"""Era bookkeeping: the timeline of committee configurations.

G-PBFT "can be regarded as a splice of multiple successive PBFT"
(section III-B4, Fig. 1); each era runs an intact PBFT with a fixed
committee, and switches are short pauses during which nothing commits.
:class:`EraHistory` records that timeline so experiments can attribute
latency outliers to switch periods and tests can assert the
no-commit-during-switch invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import EraSwitchError


@dataclass(frozen=True, slots=True)
class EraRecord:
    """One era in the timeline.

    Attributes:
        era: era number.
        committee: committee active during the era.
        started_at: when consensus (re)launched.
        switch_started_at: when the switch *into* this era began
            (equals ``started_at`` minus the switch duration; era 0
            starts at time 0 with no switch).
    """

    era: int
    committee: tuple[int, ...]
    started_at: float
    switch_started_at: float


class EraHistory:
    """Append-only record of eras and the switch periods between them.

    Pure bookkeeping: the owning node records ``era.switch_started`` /
    ``era.switch_completed`` on its event log, which is where monitors
    and :mod:`repro.obs` read switches from.
    """

    def __init__(self, initial_committee) -> None:
        first = EraRecord(
            era=0,
            committee=tuple(sorted(initial_committee)),
            started_at=0.0,
            switch_started_at=0.0,
        )
        self._records: list[EraRecord] = [first]
        self._switching_since: float | None = None

    @property
    def current(self) -> EraRecord:
        """The era currently running (or about to run, mid-switch)."""
        return self._records[-1]

    @property
    def records(self) -> tuple[EraRecord, ...]:
        """The full era timeline."""
        return tuple(self._records)

    def begin_switch(self, at: float) -> None:
        """Mark the start of a switch period.

        Raises:
            EraSwitchError: if a switch is already in progress.
        """
        if self._switching_since is not None:
            raise EraSwitchError("era switch already in progress")
        self._switching_since = at

    def complete_switch(self, at: float, committee) -> EraRecord:
        """Finish the switch: the next era starts now with *committee*.

        Raises:
            EraSwitchError: if no switch was in progress or time ran
                backwards.
        """
        if self._switching_since is None:
            raise EraSwitchError("no era switch in progress")
        if at < self._switching_since:
            raise EraSwitchError("switch cannot complete before it began")
        record = EraRecord(
            era=self.current.era + 1,
            committee=tuple(sorted(committee)),
            started_at=at,
            switch_started_at=self._switching_since,
        )
        self._records.append(record)
        self._switching_since = None
        return record

    def validate(self) -> None:
        """Check the recorded timeline's structural invariants.

        The era-switch-atomicity monitor calls this after every
        completed switch: eras must number consecutively, each switch
        period must close before its era starts, and consecutive eras
        must never overlap.  These can only break if the bookkeeping
        itself is buggy, which is exactly what a monitor should surface.

        Raises:
            EraSwitchError: on any timeline inconsistency.
        """
        for prev, cur in zip(self._records, self._records[1:]):
            if cur.era != prev.era + 1:
                raise EraSwitchError(
                    f"era numbering gap: {prev.era} followed by {cur.era}")
            if cur.switch_started_at < prev.started_at:
                raise EraSwitchError(
                    f"era {cur.era} switch began at {cur.switch_started_at}, "
                    f"before era {prev.era} started at {prev.started_at}")
            if cur.started_at < cur.switch_started_at:
                raise EraSwitchError(
                    f"era {cur.era} started at {cur.started_at}, before its "
                    f"switch began at {cur.switch_started_at}")

    def switch_periods(self) -> list[tuple[float, float]]:
        """(start, end) of every completed switch period."""
        return [
            (r.switch_started_at, r.started_at)
            for r in self._records[1:]
        ]

    def total_switch_time(self) -> float:
        """Seconds spent switching so far (completed switches only)."""
        return sum(end - start for start, end in self.switch_periods())
