"""Figure 13: running NetRPC on one vs two chained switches.

The §6.6 experiment: a MapReduce-style workload loops over N distinct
keys; a cache smaller than N suffers misses.  With two chained switches
the application's value region spans both register files, so the CHR
cliff moves from M to 2M distinct keys and goodput holds up deeper into
the sweep.

Register files are scaled down (`segment_registers`) so the crossover
happens at simulable key counts; the *ratio* of the two cliffs is the
figure's finding.
"""

from __future__ import annotations

from typing import Dict, List

from repro.control import build_chain
from repro.netsim import scaled

from .common import format_table, run_async_aggregation

__all__ = ["run", "TWO_SWITCH_CAL"]

# 32 segments x 512 registers = 16K slots per switch (the paper's 32x40K
# scaled 80x so the key sweep stays simulable).
TWO_SWITCH_CAL = scaled(segment_registers=512,
                        cache_update_window_s=25e-6)


def run(fast: bool = True, seed: int = 0) -> dict:
    """Regenerate Figure 13: CHR and goodput vs distinct keys."""
    per_switch = 32 * TWO_SWITCH_CAL.segment_registers
    key_counts = [per_switch // 2, per_switch, per_switch * 2]
    if not fast:
        key_counts.append(per_switch * 5 // 2)
    repeats = 4 if fast else 6

    curves: Dict[str, List[dict]] = {"1 switch": [], "2 switches": []}
    for label, n_switches in (("1 switch", 1), ("2 switches", 2)):
        for keys in key_counts:
            deployment = build_chain(n_switches, 1, 1,
                                     cal=TWO_SWITCH_CAL, seed=seed)
            capacity = deployment.controller.pool.free_values - 1024
            result = run_async_aggregation(
                n_clients=1, distinct_keys=keys, repeats=repeats,
                value_slots=capacity, seed=seed, cal=TWO_SWITCH_CAL,
                deployment=deployment, app_name=f"MR-{label}-{keys}",
                limit=600.0)
            curves[label].append({"keys": keys,
                                  "chr": result.cache_hit_ratio,
                                  "goodput": result.goodput_gbps})
    rows = []
    for index, keys in enumerate(key_counts):
        row = [f"{keys / per_switch:.1f}M"]
        for label in ("1 switch", "2 switches"):
            point = curves[label][index]
            row.append(f"{point['chr']:.0%} / {point['goodput']:.2f}")
        rows.append(row)
    table = format_table(
        "Figure 13: distinct keys (in units of one switch's memory M) "
        "vs CHR / goodput Gbps",
        ["keys", "1 switch", "2 switches"], rows)
    return {"curves": curves, "key_counts": key_counts,
            "per_switch_slots": per_switch, "table": table}
