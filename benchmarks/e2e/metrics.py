"""Metric definitions and their assembly from the children's samples.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units
and directions in ``BENCHMARK.json`` (``run.py manifest`` regenerates it;
the harness test asserts the two agree).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from calibration import reference_seconds
from layers import LAYERS

__all__ = ["WORKLOADS_WHY", "END_TO_END", "PER_LAYER", "HOST_PER_LAYER",
           "calibrated", "end_to_end", "per_layer", "deterministic_view",
           "manifest"]

RUN_SECONDS = 25

WORKLOADS_WHY = {
    "train_sync": "SyncAgtr all-reduce of large tensors: 32-pair packets on "
                  "the switch fast path, per-value quantise/encode in core",
    "train_lossy": "train_sync plus 1% loss on every link: flip-bit "
                   "retransmission, AIMD and timers; isolates the recovery path",
    "wordcount_zipf": "keyed AsyncAgtr, vocabulary twice the switch "
                      "reservation: mapping and server software fallback; "
                      "writes beside reads",
    "paxos_small": "12,000 one-pair RPCs: smallest message, per-call cost "
                   "dominates and packet batching cannot help",
    "fabric_rackscale": "k=8 fat tree under the shard runner, bypasses "
                        "core/inc/protocol/switchsim: control for host-path "
                        "optimisations, only place shard sync shows",
}

# (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.20),
    ("ops_per_sec", "ops/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

_HOST = True     # marks a per-layer metric that depends on host time

# (name, unit, better[, host])
PER_LAYER: List[tuple] = []
for _layer in LAYERS:
    PER_LAYER += [(f"{_layer}.self_s", "s", "lower", _HOST),
                  (f"{_layer}.self_frac", "frac", "lower", _HOST),
                  (f"{_layer}.calls", "count", "lower"),
                  (f"{_layer}.entries", "count", "lower")]
PER_LAYER += [
    ("netsim.events", "count", "lower"),
    ("netsim.events_per_op", "1/op", "lower"),
    ("netsim.events_per_sec", "1/s", "higher", _HOST),
    ("netsim.avg_cohort_size", "count", "higher"),
    ("netsim.spill_rate", "frac", "lower"),
    ("netsim.peak_spill_depth", "count", "lower"),
    ("netsim.timers_created", "count", "lower"),
    ("netsim.cancelled_timer_ratio", "frac", "lower"),
    ("netsim.link_pkts", "count", "lower"),
    ("netsim.link_bytes", "B", "lower"),
    ("netsim.wire_drops", "count", "lower"),
    ("netsim.ecn_marks", "count", "lower"),
    ("switchsim.rx_pkts", "count", "lower"),
    ("switchsim.tx_pkts", "count", "lower"),
    ("switchsim.kernel_ops", "count", "lower"),
    ("switchsim.pairs_per_kernel_op", "count", "higher"),
    ("switchsim.cntfwd_fires", "count", "lower"),
    ("switchsim.bounced_pkts", "count", "lower"),
    ("switchsim.bypass_pkts", "count", "lower"),
    ("switchsim.retransmissions_detected", "count", "lower"),
    ("switchsim.ctrl_ops", "count", "lower"),
    ("inc.flows_sent", "count", "lower"),
    ("inc.retransmit_ratio", "frac", "lower"),
    ("inc.cc_timeouts", "count", "lower"),
    ("inc.cc_decreases", "count", "lower"),
    ("inc.abandoned", "count", "lower"),
    ("inc.cache_hit_ratio", "frac", "higher"),
    ("inc.software_pairs", "count", "lower"),
    ("inc.evictions", "count", "lower"),
    ("inc.replays", "count", "lower"),
    ("protocol.pkts_per_op", "1/op", "lower"),
    ("protocol.wire_bytes_per_op", "B/op", "lower"),
    ("core.rpcs", "count", "lower"),
    ("core.rpcs_per_sec", "1/s", "higher", _HOST),
    ("shard.rounds", "count", "lower"),
    ("shard.frames_sent", "count", "lower"),
    ("shard.transport_bytes", "B", "lower"),
    ("shard.messages_relayed", "count", "lower"),
    ("shard.horizon_rounds_skipped", "count", "higher"),
    ("shard.work_s", "s", "lower", _HOST),
    ("shard.barrier_wait_s", "s", "lower", _HOST),
    ("shard.unsharded_wall_s", "s", "lower", _HOST),
    ("shard.overhead_x", "x", "lower", _HOST),
    ("sim.ops_per_sec", "ops/s", "higher"),
    ("sim.rpc_p50_us", "us", "lower"),
    ("sim.rpc_samples", "count", "higher"),
    ("sim.rpc_tail_pct", "%", "higher"),
    ("sim.rpc_tail_us", "us", "lower"),
    ("harness.trace_overhead_x", "x", "lower", _HOST),
    ("harness.import_s", "s", "lower", _HOST),
    ("harness.samples", "count", "higher", _HOST),
    ("harness.wall_iqr_frac", "frac", "lower", _HOST),
    ("harness.wall_raw_min_s", "s", "lower", _HOST),
    ("harness.wall_raw_median_s", "s", "lower", _HOST),
    ("harness.kernel_s", "s", "lower", _HOST),
]

HOST_PER_LAYER = {row[0] for row in PER_LAYER if len(row) > 3}
_UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w}
                      for n, w in WORKLOADS_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": row[0], "unit": row[1], "better": row[2]}
                      for row in PER_LAYER],
    }


def _with_units(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": _UNITS[name]}
            for name, value in values.items()}


def iqr_frac(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrated(regions: List[Dict[str, float]], key: str) -> List[float]:
    """``region[key]`` in reference seconds, one per timed region.

    A region is a dict holding the measured time under ``key`` and the
    bracketing kernel times ``k_before``/``k_after``."""
    return [reference_seconds(r[key], r["k_before"], r["k_after"])
            for r in regions]


def end_to_end(samples: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The user-visible metrics from one run's untraced samples.

    Host times are medians of calibrated samples (calibration.py): the
    iterations are bit-identical work, so their spread is the machine's.
    """
    ops = samples["iters"][0]["ops"]
    wall = statistics.median(calibrated(samples["iters"], "wall_s"))
    return _with_units({
        "wall_s": wall,
        "ops_per_sec": ops / wall,
        "setup_s": statistics.median(calibrated(samples["starts"],
                                                "setup_s")),
        "peak_rss_mb": max(samples["maxrss_kb"]) / 1024.0,
    })


def per_layer(samples: Dict[str, Any], traced: Dict[str, Any],
              warm: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Single-layer metrics: profiler split of the traced iteration plus
    the public counters read after the untraced timed region."""
    iters = samples["iters"]
    first = iters[0]
    walls = calibrated(iters, "wall_s")
    wall = statistics.median(walls)
    out: Dict[str, float] = {}
    total = traced["total_s"]
    to_reference = reference_seconds(1.0, traced["k_before"],
                                     traced["k_after"])
    for layer, row in traced["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"] * to_reference
        out[f"{layer}.self_frac"] = row["self_s"] / total
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.entries"] = row["entries"]
    out.update(first["counters"])
    out["netsim.events_per_sec"] = first["counters"]["netsim.events"] / wall
    out["core.rpcs_per_sec"] = first["counters"]["core.rpcs"] / wall
    for key in ("work_s", "barrier_wait_s", "unsharded_wall_s"):
        out[f"shard.{key}"] = statistics.median(
            calibrated(iters, f"shard_{key}"))
    unsharded = out["shard.unsharded_wall_s"]
    out["shard.overhead_x"] = wall / unsharded if unsharded else 0.0
    out["sim.ops_per_sec"] = first["ops"] / first["sim_seconds"]
    out["sim.rpc_p50_us"] = first["latency"]["p50_us"]
    out["sim.rpc_samples"] = first["latency"]["samples"]
    out["sim.rpc_tail_pct"] = first["latency"]["tail_pct"]
    out["sim.rpc_tail_us"] = first["latency"]["tail_us"]
    out["harness.trace_overhead_x"] = \
        traced["wall_s"] * to_reference / \
        reference_seconds(warm["wall_s"], warm["k_before"], warm["k_after"])
    out["harness.import_s"] = statistics.median(
        calibrated(samples["starts"], "import_s"))
    out["harness.samples"] = len(iters)
    out["harness.wall_iqr_frac"] = iqr_frac(walls)
    out["harness.wall_raw_min_s"] = min(it["wall_s"] for it in iters)
    out["harness.wall_raw_median_s"] = statistics.median(
        it["wall_s"] for it in iters)
    out["harness.kernel_s"] = statistics.median(
        k for it in iters for k in (it["k_before"], it["k_after"]))
    return _with_units(out)


def deterministic_view(iteration: Dict[str, Any]) -> Dict[str, Any]:
    """Everything of an iteration that must repeat bit-for-bit."""
    return {key: iteration[key] for key in
            ("ops", "failed", "sim_seconds", "latency", "counters",
             "fingerprint")}
