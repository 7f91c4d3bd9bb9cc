"""workers=1 vs workers=2 equivalence and the exp_loss golden pin.

Tier-1 guarantees of the sweep engine (ISSUE acceptance): a parallel
sweep of *real simulation runs* is bit-identical to the serial one, and
the parallel ``exp_loss.run()`` dict matches the golden recorded from a
serial run — full-precision floats, because each run seeds its own RNG,
shares no state across runs, and the merge is ordered by spec index.
"""

from repro.experiments import exp_loss
from repro.sweep import RunSpec, SweepEngine

SYNC = "repro.experiments.common.run_sync_aggregation"
CHAOS = "repro.experiments.common.run_chaos_reboot_round"


def _values(outcomes):
    assert all(outcome.ok for outcome in outcomes), \
        [o for o in outcomes if not o.ok]
    return [outcome.value for outcome in outcomes]


def test_sync_aggregation_grid_workers_equivalence():
    specs = [RunSpec(SYNC, {"n_values": 2048}, seed=seed)
             for seed in range(4)]
    serial = _values(SweepEngine(workers=1).run(specs))
    parallel = _values(SweepEngine(workers=2).run(specs))
    # SyncResult dataclasses compare field-by-field; full float equality.
    assert serial == parallel


def test_chaos_reboot_round_workers_equivalence():
    specs = [RunSpec(CHAOS, {"frac": 0.45}, seed=seed)
             for seed in range(3)]
    serial = _values(SweepEngine(workers=1).run(specs))
    parallel = _values(SweepEngine(workers=2).run(specs))
    for one, two in zip(serial, parallel):
        assert (one.values, one.final_time_s, one.fingerprint, one.failure,
                one.switch_stats) == \
            (two.values, two.final_time_s, two.fingerprint, two.failure,
             two.switch_stats)


# Golden absolute goodput curves (Gbps) recorded from a serial
# (workers=1) exp_loss.run(fast=True) — the parallel run must reproduce
# every bit of them.
GOLDEN_EXP_LOSS_ABSOLUTE = {
    "NetRPC": [49.030874128552284, 29.56475142511324,
               22.30307085406821, 16.684089374581163],
    "ATP": [45.71787783325811, 21.900332953499433,
            21.13794823184365, 10.237575742064283],
    "SwitchML": [35.60263014430178, 7.995912089943962,
                 3.744024551440977, 2.7338049289221322],
}


def test_exp_loss_parallel_matches_serial_golden(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    result = exp_loss.run(fast=True)
    assert result["absolute"] == GOLDEN_EXP_LOSS_ABSOLUTE
    # The derived artifact must be self-consistent with the pinned curve.
    for system, curve in result["normalized"].items():
        golden = GOLDEN_EXP_LOSS_ABSOLUTE[system]
        assert curve == [value / golden[0] for value in golden]
