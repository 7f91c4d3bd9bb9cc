"""Rack-scale fat-tree forwarding under sharded co-simulation.

The §6-scale NetRPC testbed is a rack of servers behind a Tofino; the
simulated counterpart that stresses the event core is a multi-rack /
fat-tree fabric pushing tens of thousands of flow packets through the
``Link`` transmit model.  This experiment family drives that fabric
through :mod:`repro.shard`: the structure is partitioned at rack
boundaries, the shards run in lockstep rounds in one process, and the
merged result is results-identical to the single-simulator reference.

Scenarios
---------

``rack2`` / ``rack4``
    2 or 4 racks of hosts under ToRs and a small spine tier — the
    partitioner's bread and butter, cheap enough for CI.
``fattree4``
    A k=4 fat tree (16 hosts, 20 switches): multipath ECMP across
    pods, 4 shards (one per pod) plus the core rack.
``rackscale``
    A k=8 fat tree (128 hosts, 80 switches) with tens of thousands of
    flows in non-fast mode (the ``fabric_rackscale`` end-to-end
    benchmark runs its shape).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.netsim import scaled
from repro.netsim.topology import fat_tree_structure, multi_rack_structure
from repro.shard import (ShardScenario, partition_structure,
                         rack_chaos_schedule, results_identical, run_sharded,
                         run_unsharded, synth_workload)

from .common import format_table

__all__ = ["run", "SCENARIOS", "FATTREE_CAL", "build_scenario"]

# Cut links are the lookahead: a 10us switch-to-switch propagation delay
# keeps barriers coarse enough that rounds batch useful work, while host
# links keep the default calibration so endpoint timing is untouched.
FATTREE_CAL = scaled(switch_link_delay_s=10e-6)

SCENARIOS: Dict[str, Dict[str, Any]] = {
    "rack2": {"kind": "multi_rack", "n_racks": 2, "hosts_per_rack": 4,
              "n_spines": 1, "n_shards": 2,
              "flows": (60, 240), "until": (1.5e-3, 4e-3)},
    "rack4": {"kind": "multi_rack", "n_racks": 4, "hosts_per_rack": 4,
              "n_spines": 2, "n_shards": 4,
              "flows": (120, 600), "until": (2e-3, 6e-3)},
    "fattree4": {"kind": "fat_tree", "k": 4, "n_shards": 4,
                 "flows": (120, 600), "until": (2e-3, 6e-3)},
    "rackscale": {"kind": "fat_tree", "k": 8, "n_shards": 8,
                  "flows": (2_000, 20_000), "until": (4e-3, 20e-3)},
}


def build_scenario(scenario: str = "rack4", fast: bool = True,
                   seed: int = 0, chaos: bool = False):
    """Build the (ShardScenario, Partition) pair for a named scenario."""
    try:
        spec = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}; choose from "
                         f"{sorted(SCENARIOS)}") from None
    if spec["kind"] == "multi_rack":
        structure = multi_rack_structure(spec["n_racks"],
                                         spec["hosts_per_rack"],
                                         n_spines=spec["n_spines"])
    else:
        structure = fat_tree_structure(spec["k"])
    n_flows = spec["flows"][0] if fast else spec["flows"][1]
    until = spec["until"][0] if fast else spec["until"][1]
    flows = synth_workload(structure, n_flows, seed=seed, t0=0.0,
                           t1=until * 0.6)
    partition = partition_structure(structure, spec["n_shards"],
                                    cal=FATTREE_CAL)
    schedule = None
    if chaos:
        schedule = rack_chaos_schedule(structure, partition.shard_map(),
                                       seed=seed + 1, t0=0.0, t1=until)
    scenario_obj = ShardScenario(structure=structure, flows=flows,
                                 until=until, seed=seed, cal=FATTREE_CAL,
                                 chaos=schedule)
    return scenario_obj, partition


def run(scenario: str = "rack4", fast: bool = True, seed: int = 0,
        chaos: bool = False,
        compare_unsharded: Optional[bool] = None,
        profile_dir: Optional[str] = None,
        trace: Optional[str] = None) -> dict:
    """Run one scenario sharded; optionally diff against the reference.

    ``compare_unsharded`` defaults to True everywhere but ``rackscale``
    (where the reference doubles an already long run).  ``profile_dir``
    collects one cProfile dump per shard.

    ``trace`` names a Perfetto JSON output path: the run executes with
    the flight recorder armed (shard capture + coordinator telemetry,
    DESIGN.md §4.11) and the merged timeline plus its metrics JSONL are
    written there.  Tracing observes only — fingerprints and event
    censuses are bit-identical either way.
    """
    from repro.obs import TRACE, keep_registries
    from repro.obs.merge import write_merged_trace

    scenario_obj, partition = build_scenario(scenario, fast=fast,
                                             seed=seed, chaos=chaos)
    tracing_was_on = TRACE.enabled
    if trace and not tracing_was_on:
        TRACE.start()
    try:
        result = run_sharded(scenario_obj, partition=partition,
                             profile_dir=profile_dir)
    finally:
        if trace and not tracing_was_on:
            TRACE.stop()

    trace_path = metrics_path = None
    if trace:
        trace_path, metrics_path = write_merged_trace(result.obs, trace)
        if not tracing_was_on:
            TRACE.clear()
            keep_registries(False)

    if compare_unsharded is None:
        compare_unsharded = scenario != "rackscale"
    identical = None
    unsharded_events = None
    if compare_unsharded:
        reference = run_unsharded(scenario_obj)
        identical = results_identical(result, reference)
        unsharded_events = reference.events

    rows = [[sid, f"{clock * 1e3:.3f}", events, f"{work * 1e3:.1f}"]
            for sid, (clock, events, work)
            in enumerate(zip(result.shard_clocks, result.events_per_shard,
                             result.work_s))]
    table = format_table(
        f"Sharded fat-tree [{scenario}]: {result.n_shards} shards, "
        f"{result.rounds} barriers",
        ["shard", "clock ms", "events", "work ms"], rows)
    return {
        "scenario": scenario,
        "n_shards": result.n_shards,
        "cut_links": len(partition.cut_links),
        "lookahead_s": partition.min_lookahead,
        "rounds": result.rounds,
        "total_events": result.total_events,
        "flows_delivered": len(result.flows),
        "fingerprint": result.fingerprint,
        "chaos_fingerprint": result.chaos_fingerprint,
        "results_identical_to_unsharded": identical,
        "unsharded_events": unsharded_events,
        "wall_s": result.wall_s,
        "events_per_sec": result.events_per_sec,
        "barriers_per_sec": result.barriers_per_sec,
        "messages_relayed": result.messages_relayed,
        "frames_sent": result.frames_sent,
        "transport_bytes": result.transport_bytes,
        "bytes_per_round": result.bytes_per_round,
        "barriers_per_sim_sec": result.barriers_per_sim_sec,
        "horizon_rounds_skipped": result.horizon_rounds_skipped,
        "scheduler_stats": result.scheduler_stats,
        "work_s": result.work_s,
        "trace_path": None if trace_path is None else str(trace_path),
        "metrics_path": None if metrics_path is None
        else str(metrics_path),
        "table": table,
    }
