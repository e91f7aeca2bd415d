"""Instrumented scenario capture: one run in, spans + instruments out.

:func:`capture_run` is the verify explorer's :class:`Schedule` run (one
submission every 0.75 s from ``t = 1``, see
:func:`repro.verify.explorer.run_schedule`) with the invariant monitors
off and an :class:`~repro.obs.core.Observability` attached; it runs to
the horizon and returns the sealed facade with the host.  This is what
``python -m repro.obs capture`` calls.
"""

from __future__ import annotations

from typing import Any

from repro.obs.core import Observability
from repro.obs.obsconfig import ObsConfig


def capture_run(
    protocol: str = "gpbft",
    n: int = 10,
    submissions: int = 5,
    seed: int = 0,
    horizon_s: float = 60.0,
    era_switch_at: float | None = None,
    obs_config: ObsConfig | None = None,
) -> tuple[Observability, Any]:
    """Run one instrumented scenario; returns ``(obs, host)``: the
    :meth:`~Observability.finish`-ed facade and the cluster/deployment
    that ran.

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
    return obs, host
