"""Instrumented scenario capture: one run in, spans + instruments out.

:func:`capture_run` is the verify explorer's :class:`Schedule` run (one
submission every 0.75 s from ``t = 1``, see
:func:`repro.verify.explorer.run_schedule`) with the invariant monitors
off and an :class:`~repro.obs.core.Observability` attached; it runs to
the horizon and returns the sealed capture.  This is what ``python -m
repro.obs capture`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.core import Observability
from repro.obs.obsconfig import ObsConfig
from repro.obs.spans import Span


@dataclass
class Capture:
    """One finished instrumented run.

    Attributes:
        obs: the observability facade (already :meth:`finish`-ed).
        host: the cluster/deployment that ran (for ad-hoc inspection).
        protocol: ``"pbft"`` or ``"gpbft"``.
    """

    obs: Observability
    host: object
    protocol: str

    @property
    def spans(self) -> list[Span]:
        """All spans recorded during the run."""
        return self.obs.tracer.spans

    def snapshot(self) -> dict:
        """Deterministic instrument snapshot."""
        return self.obs.snapshot()


def capture_run(
    protocol: str = "gpbft",
    n: int = 10,
    submissions: int = 5,
    seed: int = 0,
    horizon_s: float = 60.0,
    era_switch_at: float | None = None,
    obs_config: ObsConfig | None = None,
) -> Capture:
    """Run one instrumented scenario and return the sealed capture.

    Args:
        protocol: ``"pbft"`` (flat cluster) or ``"gpbft"`` (deployment).
        n: committee / deployment size (>= 4).
        submissions: transactions submitted, one every 0.75 s from t=1.
        seed: root seed for network jitter and placement.
        horizon_s: simulated seconds to run.
        era_switch_at: G-PBFT only -- force an era switch at this time.
        obs_config: windows, sampling and flight-recorder settings;
            ``None`` turns all three off and keeps every span.

    Raises:
        ConfigurationError: on anything the explorer's
            :class:`~repro.verify.explorer.Schedule` rejects -- an
            unknown protocol, ``n < 4``, no submissions, a non-positive
            horizon, or a PBFT era switch.
    """
    from repro.verify.explorer import Schedule, run_schedule

    schedule = Schedule(protocol=protocol, n=n, seed=seed,
                        submissions=submissions, horizon_s=horizon_s,
                        era_switch_at=era_switch_at)
    obs = Observability(obs_config)
    host = run_schedule(schedule, obs=obs).host
    obs.finish()
    return Capture(obs=obs, host=host, protocol=protocol)
