"""The measured Table IV: run every mechanism on the same workload.

For each consensus mechanism (PBFT, G-PBFT, dBFT, PoW, PoS) this module
runs an identical transaction workload at two network sizes and reports:

* mean commit latency at the small and large size (speed);
* the latency growth factor between them (scalability);
* bytes moved per committed transaction (network overhead);
* hash work per committed transaction (computing overhead);
* the mechanism's adversary-tolerance parameter (from the protocol).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.dbft import DBFTNetwork
from repro.baselines.pos import PoSNetwork
from repro.baselines.pow import PoWNetwork
from repro.common.eventlog import EV_REQUEST_COMPLETED
from repro.experiments import scenario
from repro.metrics.collector import render_table


@dataclass(frozen=True, slots=True)
class MechanismRow:
    """One measured row of the Table IV extension.

    Attributes:
        name: mechanism label.
        latency_small_s: mean commit latency at the small network size.
        latency_large_s: mean commit latency at the large size.
        kb_per_tx: bytes moved per committed transaction (large size).
        hashes_per_tx: hash work per committed transaction (0 unless PoW).
        tolerance: the protocol's adversary bound, as printed in Table IV.
    """

    name: str
    latency_small_s: float
    latency_large_s: float
    kb_per_tx: float
    hashes_per_tx: float
    tolerance: str

    @property
    def latency_growth(self) -> float:
        """Scalability proxy: how latency scales with network size."""
        return self.latency_large_s / max(1e-9, self.latency_small_s)


_N_TXS = 6
_TX_SPACING_S = 20.0
_HORIZON_S = 600.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _measure(protocol: str, n: int, seed: int) -> tuple[float, float, float]:
    """PBFT over all *n* replicas, or G-PBFT with a committee of 8.

    The last member -- PBFT's one client, a G-PBFT device -- submits
    every transaction.  Returns (mean latency, KB per committed
    transaction, 0.0 hashes).
    """
    host = scenario.topology(protocol, n,
                             scenario.experiment_config(seed, 8)).build()
    before = host.network.stats.bytes_sent
    tag = f"cmp-{seed}" if protocol == "pbft" else "cmp"
    for k in range(_N_TXS):
        scenario.submit(host, protocol, tag, k, -1, 1.0 + k * _TX_SPACING_S)
    scenario.run(host.sim, _HORIZON_S)
    # sorted: float aggregation must not depend on completion order
    latencies = sorted(e.data["latency"]
                       for e in host.events.of_kind(EV_REQUEST_COMPLETED))
    kb = (host.network.stats.bytes_sent - before) / 1024.0
    return _mean(latencies), kb / max(1, len(latencies)), 0.0


def _measure_chain(net, horizon_s: float = _HORIZON_S) -> tuple[float, float, float]:
    """A dBFT, PoW or PoS network under the same workload, run to
    *horizon_s*: (mean latency, KB and hashes per committed transaction;
    only PoW hashes)."""
    before = net.network.stats.bytes_sent
    for k in range(_N_TXS):
        net.sim.schedule_at(1.0 + k * _TX_SPACING_S, net.submit_tx, f"tx-{k}")
    net.run(until=horizon_s)
    latencies = sorted(net.commit_latencies().values())
    kb = (net.network.stats.bytes_sent - before) / 1024.0
    per_tx = max(1, len(latencies))
    hashes = net.hash_work() / per_tx if isinstance(net, PoWNetwork) else 0.0
    return _mean(latencies), kb / per_tx, hashes


def measured_table4(n_small: int = 8, n_large: int = 32, seed: int = 0) -> tuple[list[MechanismRow], str]:
    """Run every mechanism at two sizes and build the measured table.

    Returns:
        (rows, rendered text table).
    """
    mechanisms = (
        ("PBFT", lambda n: _measure("pbft", n, seed), "<33.3% faulty replicas"),
        ("G-PBFT", lambda n: _measure("gpbft", n, seed), "<33.3% endorsers"),
        ("dBFT", lambda n: _measure_chain(
            DBFTNetwork(n_validators=n, seed=seed)), "<33.3% delegates"),
        # confirmations need several blocks: PoW runs twice as long
        ("PoW", lambda n: _measure_chain(
            PoWNetwork(n_miners=n, seed=seed), _HORIZON_S * 2),
         "<50% hash rate (<25% w/ selfish mining)"),
        ("PoS", lambda n: _measure_chain(
            PoSNetwork(n_validators=n, seed=seed)), "<50% stake"),
    )
    rows: list[MechanismRow] = []
    for name, measure, tolerance in mechanisms:
        lat_s, _, _ = measure(n_small)
        lat_l, kb, hashes = measure(n_large)
        rows.append(MechanismRow(name, lat_s, lat_l, kb, hashes, tolerance))

    text = render_table(
        ["mechanism", f"latency @{n_small} (s)", f"latency @{n_large} (s)",
         "growth", "KB/tx", "hashes/tx", "tolerance"],
        [
            [r.name, f"{r.latency_small_s:.2f}", f"{r.latency_large_s:.2f}",
             f"x{r.latency_growth:.2f}", f"{r.kb_per_tx:.1f}",
             f"{r.hashes_per_tx:.2e}" if r.hashes_per_tx else "0",
             r.tolerance]
            for r in rows
        ],
        title=(
            "Table IV (measured extension) -- identical workload "
            f"({_N_TXS} txs) at n={n_small} and n={n_large}"
        ),
    )
    return rows, text
