"""Instrumented scenario capture: one run in, spans + instruments out.

:func:`capture_run` builds the same fixed scenarios the verify
explorer runs (one submission every 0.75 s from ``t = 1``) but with an
:class:`~repro.obs.core.Observability` attached, runs to the horizon,
and returns the sealed capture.  This is what ``python -m repro.obs
capture`` and the ``--trace`` flag of the experiments CLI call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConfigurationError
from repro.obs.core import Observability
from repro.obs.obsconfig import ObsConfig
from repro.obs.spans import Span
from repro.pbft.messages import RawOperation

#: Matches the verify explorer's synthetic transaction payload size.
_TX_BYTES = 200


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
        obs_config: v2 pipeline settings (windows, sampling, flight
            recorder); ``None`` keeps the all-off v1 behavior.

    Raises:
        ConfigurationError: on an unknown protocol or a PBFT era switch.
    """
    if protocol not in ("pbft", "gpbft"):
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    if era_switch_at is not None and protocol != "gpbft":
        raise ConfigurationError("era_switch_at requires protocol gpbft")
    base = GPBFTConfig()
    config = base.replace(network=replace(base.network, seed=seed))
    obs = Observability(obs_config)
    if protocol == "pbft":
        host = TopologySpec.cluster(
            n_replicas=n, n_clients=1, config=config).build(obs=obs)
        client = host.any_client
        for k in range(submissions):
            op = RawOperation(op_id=f"cap-{seed}-{k}", size_bytes=_TX_BYTES)
            host.sim.schedule_at(1.0 + 0.75 * k, client.submit, op)
    else:
        host = TopologySpec.single(
            n, config=config, seed=seed, start_reports=False).build(obs=obs)
        ids = sorted(host.nodes)
        for k in range(submissions):
            host.sim.schedule_at(
                1.0 + 0.75 * k, host.submit_from, ids[k % len(ids)])
        if era_switch_at is not None:
            host.sim.schedule_at(era_switch_at, host.force_era_switch)
    host.sim.run(until=horizon_s)
    obs.finish()
    return Capture(obs=obs, host=host, protocol=protocol)
