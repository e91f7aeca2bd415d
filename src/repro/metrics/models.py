"""Closed-form performance and overhead models (paper section IV).

Message sizes are read from the wire layouts
(:func:`repro.common.wire_layout.wire_struct`), the table the codec and
:mod:`repro.pbft.messages` size messages by, so the model counts a
byte the way the simulator does.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.wire_layout import wire_struct

#: Serialized size of a prepare/commit message.
PHASE_MESSAGE_BYTES = wire_struct("pbft.prepare").size

#: Request overhead on top of the operation payload (client id,
#: timestamp, signature).
REQUEST_OVERHEAD_BYTES = wire_struct("pbft.request").size

#: Pre-prepare framing on top of the piggybacked request.
PRE_PREPARE_OVERHEAD_BYTES = wire_struct("pbft.pre_prepare").size

#: Reply message size.
REPLY_BYTES = wire_struct("pbft.reply").size


def _check_n(n: int) -> None:
    if n < 4:
        raise ConfigurationError(f"PBFT needs n >= 4, got {n}")


def _check_s(s: float) -> None:
    if s <= 0:
        raise ConfigurationError("processing rate must be positive")


def pbft_phase_seconds(n: int, s: float) -> float:
    """Time for one phase switch: drain a ~2n/3 quorum at s msg/s."""
    _check_n(n)
    _check_s(s)
    return (2.0 * n) / (3.0 * s)


def pbft_consensus_seconds(n: int, s: float, propagation_s: float = 0.0) -> float:
    """Unloaded end-to-end consensus latency for one request.

    Two quorum-gathering phases (prepare, commit) dominate; the
    pre-prepare fan-out costs one message time; propagation adds a
    constant per hop across the four message legs.
    """
    _check_n(n)
    _check_s(s)
    return 2.0 * pbft_phase_seconds(n, s) + 1.0 / s + 4.0 * propagation_s


def gpbft_consensus_seconds(
    n: int, c: int, s: float, propagation_s: float = 0.0
) -> float:
    """G-PBFT latency: PBFT over the committee of min(n, c) endorsers."""
    if c < 4:
        raise ConfigurationError("committee must have at least 4 endorsers")
    return pbft_consensus_seconds(min(n, c), s, propagation_s)


def pbft_message_count(n: int) -> int:
    """Messages one request moves through PBFT with n replicas.

    request (1) + pre-prepares (n-1) + prepares ((n-1)^2)
    + commits (n(n-1)) + replies (n).
    """
    _check_n(n)
    return 1 + (n - 1) + (n - 1) ** 2 + n * (n - 1) + n


def gpbft_message_count(n: int, c: int) -> int:
    """Messages one request moves through G-PBFT (committee min(n, c))."""
    return pbft_message_count(min(n, c))


def pbft_traffic_bytes(n: int, op_bytes: int = 200) -> int:
    """Bytes one request moves through PBFT with n replicas.

    Args:
        n: replica count.
        op_bytes: serialized operation (transaction) size; the default
            matches a :class:`repro.chain.transaction.NormalTransaction`.
    """
    _check_n(n)
    request = REQUEST_OVERHEAD_BYTES + op_bytes
    pre_prepare = PRE_PREPARE_OVERHEAD_BYTES + request
    return (
        request
        + (n - 1) * pre_prepare
        + (n - 1) ** 2 * PHASE_MESSAGE_BYTES
        + n * (n - 1) * PHASE_MESSAGE_BYTES
        + n * REPLY_BYTES
    )


def gpbft_traffic_bytes(n: int, c: int, op_bytes: int = 200) -> int:
    """Bytes one request moves through G-PBFT (committee min(n, c))."""
    return pbft_traffic_bytes(min(n, c), op_bytes)


def predicted_speedup(n: int, c: int) -> float:
    """Paper section IV-B: performance improves by n/c."""
    _check_n(n)
    if c <= 0:
        raise ConfigurationError("committee size must be positive")
    return n / min(n, c)


def predicted_traffic_reduction(n: int, c: int) -> float:
    """Paper section IV-C: overhead reduces to (c/n)^2."""
    _check_n(n)
    if c <= 0:
        raise ConfigurationError("committee size must be positive")
    c = min(n, c)
    return (c * c) / float(n * n)


def utilization(n: int, s: float, proposal_period_s: float) -> float:
    """Per-node message-processing utilization under the Fig. 3 workload.

    Each consensus instance delivers ~2n messages to every node; with
    every one of n nodes proposing every ``proposal_period_s`` seconds,
    instances arrive at rate n/period, so each node processes
    ~2 n^2 / period messages per second against capacity s.
    """
    _check_n(n)
    _check_s(s)
    if proposal_period_s <= 0:
        raise ConfigurationError("proposal period must be positive")
    return (2.0 * n * n) / (proposal_period_s * s)


def queueing_delay_factor(rho: float) -> float:
    """M/D/1 sojourn inflation: 1 + rho / (2 (1 - rho)).

    Unstable systems (rho >= 1) return infinity -- the regime where the
    paper's PBFT curve explodes past 200 nodes.
    """
    if rho < 0:
        raise ConfigurationError("utilization must be >= 0")
    if rho >= 1.0:
        return float("inf")
    return 1.0 + rho / (2.0 * (1.0 - rho))


def predicted_loaded_latency(
    n: int, s: float, proposal_period_s: float, propagation_s: float = 0.0
) -> float:
    """Consensus latency under the Fig. 3 workload: base O(n/s) latency
    inflated by the M/D/1 queueing factor at the workload's utilisation.

    Returns infinity past saturation -- the regime where the paper's
    PBFT curve explodes and the protocol "cannot work".
    """
    base = pbft_consensus_seconds(n, s, propagation_s)
    rho = utilization(n, s, proposal_period_s)
    return base * queueing_delay_factor(rho)
