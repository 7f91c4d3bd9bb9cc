"""Table 5: microbenchmarks on basic INC functions.

Five rows: SyncAgtr goodput, AsyncAgtr goodput, voting delay, monitoring
delay, and packet-processing capacity — each for NetRPC, the matching
prior INC art (ATP / ASK / P4xos / ElasticSketch), and the pure-DPDK
software baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import FlowMonitor
from repro.baselines import (
    P4xosCluster,
    SketchPacket,
    SketchSwitch,
    build_aggregation_job,
    SoftwarePaxosCluster,
)
from repro.control import build_rack
from repro.netsim import Host, Simulator, star
from repro.workloads import SyntheticTrace

from repro.netsim import scaled

from .common import CAL, format_table, run_async_aggregation, \
    run_sync_aggregation, voting_delay
from .exp_paxos import PAXOS_CAL

__all__ = ["run", "monitor_delay_netrpc", "monitor_delay_sketch"]

_MONITOR_OBSERVATIONS = 48_000
_MONITOR_QUERY_FLOWS = 32

# Monitoring runs against a modest collector box (the paper's setup):
# counting a flow record in software costs real CPU there, which is
# precisely the work the switch absorbs on the INC path.
MON_CAL = scaled(host_agent_cores=4, server_sw_inc_pkt_cpu_s=5e-6)


def monitor_delay_netrpc(software_only: bool = False, seed: int = 0
                         ) -> float:
    """Stream a trace batch and query counters; total elapsed time."""
    deployment = build_rack(2, 1, cal=MON_CAL, seed=seed)
    trace = SyntheticTrace(n_flows=500, seed=seed)
    records = list(trace.packets(_MONITOR_OBSERVATIONS))
    monitor = FlowMonitor(deployment, batch_flows=32)
    if software_only:
        # Emulate the pure-DPDK deployment: agents bypass the switch and
        # the server executes every primitive in software.
        for config in monitor.registered.configs.values():
            config.has_switch = False
    start = deployment.sim.now
    monitor.feed({"c0": records[: len(records) // 2],
                  "c1": records[len(records) // 2:]})
    truth = trace.exact_counts(records)
    top = sorted(truth, key=truth.get, reverse=True)[:_MONITOR_QUERY_FLOWS]
    monitor.query(top)
    return deployment.sim.now - start


def monitor_delay_sketch(seed: int = 0) -> float:
    """The same workload against the ElasticSketch switch."""
    sim = Simulator(seed=seed)
    switch = SketchSwitch(sim, "sw0", cal=MON_CAL)
    monitors = [Host(sim, f"m{i}", cores=MON_CAL.host_agent_cores,
                     rx_cpu_cost_s=MON_CAL.host_pkt_cpu_s)
                for i in range(2)]
    star(sim, switch, monitors, cal=MON_CAL)
    replies = []
    monitors[0].set_handler(replies.append)
    trace = SyntheticTrace(n_flows=500, seed=seed)
    records = list(trace.packets(_MONITOR_OBSERVATIONS))
    start = sim.now
    batch: Dict[str, int] = {}
    sender = 0
    for record in records:
        batch[record.flow_id] = batch.get(record.flow_id, 0) + 1
        if len(batch) >= 32:
            monitors[sender % 2].send(
                SketchPacket(kind="report", src=f"m{sender % 2}",
                             dst="sw0", flows=dict(batch)), "sw0")
            batch = {}
            sender += 1
    if batch:
        monitors[0].send(SketchPacket(kind="report", src="m0", dst="sw0",
                                      flows=batch), "sw0")
    sim.run()
    truth = trace.exact_counts(records)
    top = sorted(truth, key=truth.get, reverse=True)[:_MONITOR_QUERY_FLOWS]
    monitors[0].send(SketchPacket(kind="query", src="m0", dst="sw0",
                                  flows={f: 0 for f in top}), "sw0")
    sim.run()
    assert replies, "sketch query produced no reply"
    return sim.now - start


def run(fast: bool = True) -> dict:
    """Regenerate Table 5; returns row dicts plus the printed table."""
    values = 64_000 if fast else 256_000
    keys = 2048 if fast else 8192

    repeats = 16 if fast else 40
    sync_netrpc = run_sync_aggregation(n_values=values).goodput_gbps
    sync_atp = build_aggregation_job("atp", 2, values // 32, cal=CAL).run()
    sync_dpdk = build_aggregation_job("byteps", 2, values // 32,
                                      cal=CAL).run()

    async_netrpc = run_async_aggregation(distinct_keys=keys,
                                         repeats=repeats)
    async_ask = run_async_aggregation(distinct_keys=keys, repeats=repeats,
                                      cache_policy="hash", app_name="ASK")
    async_dpdk = run_async_aggregation(distinct_keys=keys, repeats=repeats,
                                       software_only=True, app_name="SW")

    vote_netrpc = voting_delay(cal=PAXOS_CAL)
    vote_p4xos = P4xosCluster(cal=PAXOS_CAL).run(
        200, window=2, gap_s=50e-6).latency.mean()
    vote_dpdk = SoftwarePaxosCluster(dpdk=True, cal=PAXOS_CAL).run(
        200, window=2, gap_s=50e-6).latency.mean()

    mon_netrpc = monitor_delay_netrpc()
    mon_sketch = monitor_delay_sketch()
    mon_dpdk = monitor_delay_netrpc(software_only=True, seed=1)

    # Packet processing capacity (Mpps): the switch pipeline is line
    # rate; the DPDK hosts are bounded by per-packet CPU across cores.
    dpdk_mpps = CAL.host_agent_cores / CAL.host_pkt_cpu_s / 1e6

    rows = [
        ["SyncAgtr goodput (Gbps)", f"{sync_netrpc:.2f}",
         f"{sync_atp:.2f} (ATP)", f"{sync_dpdk:.2f}"],
        ["AsyncAgtr goodput (Gbps)", f"{async_netrpc.goodput_gbps:.2f}",
         f"{async_ask.goodput_gbps:.2f} (ASK)",
         f"{async_dpdk.goodput_gbps:.2f}"],
        ["Voting delay (us)", f"{vote_netrpc * 1e6:.1f}",
         f"{vote_p4xos * 1e6:.1f} (P4xos)", f"{vote_dpdk * 1e6:.1f}"],
        ["Monitor delay (ms)", f"{mon_netrpc * 1e3:.2f}",
         f"{mon_sketch * 1e3:.2f} (ElasticSketch)",
         f"{mon_dpdk * 1e3:.2f}"],
        ["Pkt capacity (Mpps)", ">1000", ">1000",
         f"{dpdk_mpps:.1f}"],
    ]
    table = format_table("Table 5: microbenchmarks",
                         ["metric", "NetRPC", "Prior art", "DPDK"], rows)
    return {
        "sync": {"netrpc": sync_netrpc, "atp": sync_atp,
                 "dpdk": sync_dpdk},
        "async": {"netrpc": async_netrpc.goodput_gbps,
                  "ask": async_ask.goodput_gbps,
                  "dpdk": async_dpdk.goodput_gbps},
        "voting_s": {"netrpc": vote_netrpc, "p4xos": vote_p4xos,
                     "dpdk": vote_dpdk},
        "monitor_s": {"netrpc": mon_netrpc, "sketch": mon_sketch,
                      "dpdk": mon_dpdk},
        "table": table,
    }
