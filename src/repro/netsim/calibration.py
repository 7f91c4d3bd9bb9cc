"""Calibration constants aligning the simulator with the paper's testbed.

The paper's testbed: two Barefoot Tofino switches (32x100 Gbps), eight
hosts with Mellanox ConnectX-5 100 Gbps NICs and 56-core CPUs, DPDK
agents.  These constants place the simulated numbers in the same order
of magnitude.  Benchmarks must assert *shape* (orderings, ratios,
crossovers), never absolute equality with the paper.

All times are seconds, rates bits/second unless suffixed otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["Calibration", "DEFAULT_CALIBRATION", "scaled"]


@dataclass(frozen=True)
class Calibration:
    """Tunable physical constants for a simulated deployment."""

    # --- links -----------------------------------------------------------
    link_bandwidth_bps: float = 100e9          # 100 Gbps ports
    host_link_delay_s: float = 1.0e-6          # host <-> ToR propagation
    switch_link_delay_s: float = 2.0e-6        # switch <-> switch

    # --- switch ----------------------------------------------------------
    switch_pipeline_delay_s: float = 0.6e-6    # ingress->egress latency
    switch_queue_capacity_pkts: int = 512
    switch_ecn_threshold_pkts: int = 256
    switch_recirculation_delay_s: float = 0.8e-6   # extra trip for recirc

    # --- host CPU --------------------------------------------------------
    # Per-packet cost on a host-agent worker core for plain send/receive
    # (DPDK-class user-level stack with burst RX amortisation).
    host_pkt_cpu_s: float = 0.06e-6
    # Additional per-packet cost when the *server* must execute the INC
    # primitives in software (the fallback path / pure-software baseline).
    server_sw_inc_pkt_cpu_s: float = 1.1e-6
    host_agent_cores: int = 14                 # cores given to the agent

    # --- transport ---------------------------------------------------  ---
    w_max: int = 256                           # paper §5.1
    # The paper's flows are long-lived; benchmarks measure steady state
    # over millisecond windows, so flows start half-open and ramp fast.
    initial_cwnd: int = 128
    min_cwnd: int = 2
    # Aggressive: the flip-bit protocol makes spurious retransmissions
    # harmless (idempotent), so the timeout sits just past the loaded RTT.
    retransmit_timeout_s: float = 20e-6
    aimd_increase: int = 16                    # packets per RTT
    aimd_decrease: float = 0.8                 # gentle multiplicative cut
    # How long a recorded ECN mark keeps tainting return packets ("the
    # retransmission packets carry ECN until cleared", §5.1).  Scaled to
    # roughly one queue-drain time plus an RTT so a single congestion
    # event is signalled once per window, not for hundreds of RTTs.
    ecn_freshness_s: float = 10e-6

    # --- switch memory -----------------------------------------------  ---
    memory_segments: int = 32                  # one per kv slot
    segment_registers: int = 40_000            # 40K 32-bit units each

    # --- agents ------------------------------------------------------  ---
    flows_per_app: int = 4                     # parallel worker threads (§4)
    # Control-plane register access (PCIe to the switch ASIC driver).
    ctrl_rtt_s: float = 20e-6
    ack_batch_pkts: int = 32                   # client ACK coalescing
    ack_batch_delay_s: float = 10e-6
    # Spin interval for fresh-retry (test&set) attempts: locks poll the
    # switch at this pace rather than hammering at the transport RTO.
    fresh_retry_delay_s: float = 200e-6

    # --- misc --------------------------------------------------------  ---
    cache_update_window_s: float = 5e-3        # periodic LRU window
    controller_poll_interval_s: float = 50e-3  # two-level timeout polling
    first_level_timeout_s: float = 200e-3
    second_level_timeout_s: float = 2.0


DEFAULT_CALIBRATION = Calibration()


def scaled(base: Calibration = DEFAULT_CALIBRATION, **overrides) -> Calibration:
    """Return a copy of ``base`` with the given fields replaced.

    >>> c = scaled(link_bandwidth_bps=10e9)
    >>> c.link_bandwidth_bps
    10000000000.0
    """
    return replace(base, **overrides)
