"""The golden fingerprint pins of the sharded rack2 scenario.

The pin freezes the rack2 fingerprint: any change to link timing, ECMP
hashing, workload synthesis, or the barrier protocol that shifts a
single float breaks it loudly.
"""

from repro.experiments.exp_fattree import build_scenario
from repro.shard import run_sharded

GOLDEN_RACK2_SEED0 = ("ba0e525fc616d000efca5108dc577b86"
                      "1104181a249066257795bc2fca474f2c")
GOLDEN_RACK2_SEED0_CHAOS = ("951e13b542d3c483c4bc2e824b6efe9d"
                            "db4c0bcbfa8184a11daad8a74ffbca96")


def test_golden_fingerprint_rack2():
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=0)
    result = run_sharded(scenario_obj, partition=partition)
    assert result.fingerprint == GOLDEN_RACK2_SEED0
    assert result.events_per_shard == [417, 359]
    # Adaptive multi-round horizons (DESIGN.md §4.10) prove several
    # lookahead windows per barrier; the fixed-window BSP protocol
    # needed 51 rounds for this scenario.  The fingerprint and the
    # per-shard event census above are the real pins — the round count
    # only documents the sync schedule.
    assert result.rounds == 47
    assert result.horizon_rounds_skipped > 0


def test_golden_fingerprint_rack2_chaos():
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=0,
                                             chaos=True)
    result = run_sharded(scenario_obj, partition=partition)
    assert result.fingerprint == GOLDEN_RACK2_SEED0_CHAOS
