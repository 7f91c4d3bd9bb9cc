"""Sharded run vs the single-simulator reference.

The tentpole guarantee: a sharded run of a scenario produces the same
per-flow records, the same (merged) per-link counters, and the same
run fingerprint as one ``Simulator`` executing the whole structure —
and it terminates with every shard's clock at exactly ``until``.
"""

import glob
import os
import signal
import subprocess
import sys
from time import perf_counter

import pytest

from repro.experiments.exp_fattree import build_scenario
from repro.netsim import scaled
from repro.netsim.simulator import set_global_wall_deadline
from repro.netsim.topology import multi_rack_structure
from repro.shard import (PartitionError, ShardScenario, ShardWorkerDied,
                         ShardWorkerHung, TRANSPORTS, partition_structure,
                         rack_chaos_schedule, results_identical, run_sharded,
                         run_unsharded, synth_workload)
from repro.shard.runner import _ShardWorker
from repro.shard.transport import SEGMENT_PREFIX, sweep_orphaned_segments

CAL = scaled(switch_link_delay_s=10e-6)


def _own_segments():
    # Bus segments are named after the coordinator, this process; other
    # runs on the machine create and remove theirs meanwhile.
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"))


@pytest.mark.parametrize("scenario", ["rack2", "rack4", "fattree4"])
def test_sharded_matches_unsharded(scenario):
    scenario_obj, partition = build_scenario(scenario, fast=True, seed=2)
    sharded = run_sharded(scenario_obj, partition=partition, workers=1)
    reference = run_unsharded(scenario_obj)
    assert results_identical(sharded, reference)
    assert sharded.flows          # flows actually completed
    assert sharded.link_stats


def test_termination_clocks_reach_until():
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=5)
    result = run_sharded(scenario_obj, partition=partition, workers=1)
    assert all(clock == scenario_obj.until for clock in result.shard_clocks)
    assert result.rounds >= 1
    assert result.total_events == sum(result.events_per_shard)


def test_link_counter_merge_is_keywise_sum():
    scenario_obj, partition = build_scenario("rack4", fast=True, seed=9)
    sharded = run_sharded(scenario_obj, partition=partition, workers=1)
    reference = run_unsharded(scenario_obj)
    # Same link names, same counters — including every cut link, whose
    # counters are the sum of its egress and ingress halves.
    assert sharded.link_stats == reference.link_stats
    cut_names = {c.name for c in partition.cut_links}
    touched = cut_names & set(sharded.link_stats)
    assert touched                 # traffic actually crossed the cuts
    for name in touched:
        assert sharded.link_stats[name].get("delivered_pkts", 0) > 0


def test_chaos_on_cut_link_is_rejected():
    structure = multi_rack_structure(2, 2)
    partition = partition_structure(structure, 2, cal=CAL)
    flows = synth_workload(structure, 20, seed=0, t0=0.0, t1=1e-3)
    # A schedule generated against a *different* shard map can land
    # faults on cut links; the runner must refuse, not silently skip.
    whole = partition_structure(structure, 1, cal=CAL)
    chaos = rack_chaos_schedule(structure, whole.shard_map(), seed=3,
                                t0=0.0, t1=1e-3, n_link_faults=8)
    scenario = ShardScenario(structure=structure, flows=flows, until=2e-3,
                             seed=0, cal=CAL, chaos=chaos)
    cut_pairs = {(c.src, c.dst) for c in partition.cut_links}
    hits_cut = any((e.src, e.dst) in cut_pairs for e in chaos.events)
    if not hits_cut:
        pytest.skip("schedule happened to avoid the cut")
    with pytest.raises(PartitionError):
        run_sharded(scenario, partition=partition, workers=1)


def test_chaos_run_matches_unsharded():
    scenario_obj, partition = build_scenario("rack4", fast=True, seed=4,
                                             chaos=True)
    sharded = run_sharded(scenario_obj, partition=partition, workers=1)
    reference = run_unsharded(scenario_obj)
    assert results_identical(sharded, reference)
    assert sharded.chaos_fingerprint is not None


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_killed_worker_raises_a_typed_error_and_leaks_no_segment(
        monkeypatch, transport):
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=2)
    real_round = _ShardWorker.run_round
    rounds = []

    def run_round(self, horizon, inbound):
        # Runs in the forked worker: shard 1 (worker 1 of 2) is killed
        # in the middle of its third round.
        if self.shard_id == 1:
            rounds.append(horizon)
            if len(rounds) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return real_round(self, horizon, inbound)

    monkeypatch.setattr(_ShardWorker, "run_round", run_round)
    segments = _own_segments()
    with pytest.raises(ShardWorkerDied) as died:
        run_sharded(scenario_obj, partition=partition, workers=2,
                    transport=transport)
    assert (died.value.worker, died.value.round, died.value.exitcode) == \
        (1, 3, -signal.SIGKILL)
    assert _own_segments() == segments


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_stopped_worker_raises_a_typed_error_and_leaks_no_segment(
        monkeypatch, transport):
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=2)
    real_round = _ShardWorker.run_round
    rounds = []

    def run_round(self, horizon, inbound):
        # Runs in the forked worker: shard 1 (worker 1 of 2) stops in
        # the middle of its third round and never replies.
        if self.shard_id == 1:
            rounds.append(horizon)
            if len(rounds) == 3:
                os.kill(os.getpid(), signal.SIGSTOP)
        return real_round(self, horizon, inbound)

    monkeypatch.setattr(_ShardWorker, "run_round", run_round)
    segments = _own_segments()
    budget_s = 3.0
    start = perf_counter()
    set_global_wall_deadline(start + budget_s)
    try:
        with pytest.raises(ShardWorkerHung) as hung:
            run_sharded(scenario_obj, partition=partition, workers=2,
                        transport=transport)
    finally:
        set_global_wall_deadline(None)
    waited = perf_counter() - start
    assert (hung.value.worker, hung.value.round) == (1, 3)
    assert budget_s <= waited < budget_s + 5.0
    assert _own_segments() == segments


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_segments_of_dead_coordinators_are_swept():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()                       # its pid now names no process
    orphan = f"{SEGMENT_PREFIX}{child.pid}_0badcafe"
    mine = f"{SEGMENT_PREFIX}{os.getpid()}_0badcafe"
    for name in (orphan, mine):
        with open(os.path.join("/dev/shm", name), "wb") as f:
            f.write(b"\0" * 64)
    try:
        swept = sweep_orphaned_segments()
        assert orphan in swept and mine not in swept
        assert not os.path.exists(os.path.join("/dev/shm", orphan))
        assert os.path.exists(os.path.join("/dev/shm", mine))
    finally:
        for name in (orphan, mine):
            if os.path.exists(os.path.join("/dev/shm", name)):
                os.unlink(os.path.join("/dev/shm", name))
