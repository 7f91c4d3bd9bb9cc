"""Figure 12: cache-policy comparison (CHR and goodput).

An AsyncAgtr workload whose key set exceeds the switch-memory
reservation, under four replacement policies: NetRPC's periodic
counting-LRU, FCFS, hash addressing (ASK/ATP style), and Power-of-N.
The paper's finding: CHR correlates with goodput, and the periodic
update tracks the hot set best under skew.
"""

from __future__ import annotations

from typing import Dict

from repro.netsim import scaled
from repro.sweep import RunSpec, sweep_values

from .common import format_table, run_async_aggregation

__all__ = ["run", "POLICIES", "CACHE_CAL"]

POLICIES = ("netrpc", "fcfs", "hash", "pon")

# The paper's cache-update window spans many millions of packets on a
# second-long run; scaled proportionally to the simulated run length so
# several update windows elapse within the experiment.
CACHE_CAL = scaled(cache_update_window_s=25e-6)


def _policy_point(policy: str, distinct: int, slots: int, repeats: int,
                  seed: int) -> dict:
    """One cache-policy run (CACHE_CAL is module state, not a kwarg, to
    keep the spec pickle-light)."""
    result = run_async_aggregation(
        distinct_keys=distinct, repeats=repeats, cache_policy=policy,
        value_slots=slots, zipf_s=1.1, seed=seed, phases=3,
        cal=CACHE_CAL, app_name=f"CACHE-{policy}")
    return {"chr": result.cache_hit_ratio,
            "goodput_gbps": result.goodput_gbps}


def run(fast: bool = True, seed: int = 2) -> dict:
    """Regenerate Figure 12.

    The reservation (``value_slots``) holds half the distinct keys, so
    the policy decides which half lives on the switch; keys are Zipf
    distributed so there is a hot set worth tracking.
    """
    distinct = 4096 if fast else 16_384
    slots = distinct // 2
    repeats = 12 if fast else 24
    specs = [RunSpec("repro.experiments.exp_cache._policy_point",
                     {"policy": policy, "distinct": distinct,
                      "slots": slots, "repeats": repeats, "seed": seed},
                     label=f"fig12:{policy}")
             for policy in POLICIES]
    results: Dict[str, dict] = dict(zip(POLICIES, sweep_values(specs)))
    rows = [[policy, f"{r['chr']:.2%}", f"{r['goodput_gbps']:.2f}"]
            for policy, r in results.items()]
    table = format_table("Figure 12: cache policies (CHR / goodput)",
                         ["policy", "CHR", "Gbps"], rows)
    return {"results": results, "table": table}
