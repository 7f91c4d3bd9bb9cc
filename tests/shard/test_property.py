"""Hypothesis property suite for the partitioner and sharded runs.

Random multi-rack shapes, shard counts, seeds and workloads; the
properties that must hold for *every* draw:

* the partitioner yields a true partition whose cut edges all carry
  positive delay (the lookahead the barrier protocol runs on), and
* a sharded run is results-identical to the unsharded
  single-simulator run of the same scenario.

Example counts are small — each example is a pair of full simulation
runs — but the shapes cover 1..5 racks x 1..4 hosts x 1..3 spines and
shard counts past the rack count (exercising the shrink path).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netsim import scaled
from repro.netsim.topology import multi_rack_structure
from repro.shard import (ShardScenario, partition_structure,
                         results_identical, run_sharded, run_unsharded,
                         synth_workload)

CAL = scaled(switch_link_delay_s=10e-6)

SHAPES = st.tuples(st.integers(1, 5),     # racks
                   st.integers(1, 4),     # hosts per rack
                   st.integers(1, 3),     # spines
                   st.integers(1, 8))     # requested shards


@given(shape=SHAPES)
@settings(max_examples=25, deadline=None)
def test_partition_properties(shape):
    n_racks, hosts_per_rack, n_spines, n_shards = shape
    structure = multi_rack_structure(n_racks, hosts_per_rack,
                                     n_spines=n_spines)
    part = partition_structure(structure, n_shards, cal=CAL)
    names = {name for name, _r, _k in structure[0]}
    shard_of = part.shard_map()
    assert set(shard_of) == names
    assert 1 <= part.n_shards <= max(1, n_shards)
    assert all(0 <= sid < part.n_shards for sid in shard_of.values())
    for cut in part.cut_links:
        assert cut.delay_s > 0.0
        assert shard_of[cut.src] != shard_of[cut.dst]
    shard_pairs = {(shard_of[a], shard_of[b])
                   for a, b, _t in structure[1] if shard_of[a] != shard_of[b]}
    channel_pairs = {pair for pair, _bound in part.lookahead}
    assert channel_pairs == shard_pairs | {(b, a) for a, b in shard_pairs}


@given(shape=st.tuples(st.integers(2, 4), st.integers(2, 3),
                       st.integers(1, 2), st.integers(2, 5)),
       seed=st.integers(0, 2 ** 16),
       n_flows=st.integers(5, 60))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_equals_unsharded(shape, seed, n_flows):
    n_racks, hosts_per_rack, n_spines, n_shards = shape
    structure = multi_rack_structure(n_racks, hosts_per_rack,
                                     n_spines=n_spines)
    flows = synth_workload(structure, n_flows, seed=seed, t0=0.0, t1=1e-3)
    scenario = ShardScenario(structure=structure, flows=flows, until=2e-3,
                             seed=seed, cal=CAL)
    partition = partition_structure(structure, n_shards, cal=CAL)
    sharded = run_sharded(scenario, partition=partition)
    reference = run_unsharded(scenario)
    assert results_identical(sharded, reference)
    assert all(clock == scenario.until for clock in sharded.shard_clocks)
