"""The link-boundary partitioner (DESIGN.md §4.9).

A partition is only usable if it is a true partition (every node in
exactly one shard), every cut edge carries positive propagation delay
(that delay *is* the conservative lookahead), and the channel tables
are deterministic — sorted, derived purely from the structure.
"""

import pytest

from repro.netsim import scaled
from repro.netsim.topology import fat_tree_structure, multi_rack_structure
from repro.shard import PartitionError, partition_structure

CAL = scaled(switch_link_delay_s=10e-6)


def test_true_partition_and_membership():
    structure = multi_rack_structure(4, 3, n_spines=2)
    part = partition_structure(structure, 4, cal=CAL)
    shard_of = part.shard_map()
    assert set(shard_of) == {name for name, _r, _k in structure[0]}
    assert len(shard_of) == len(structure[0])
    assert set(shard_of.values()) == set(range(part.n_shards))
    # Racks are atomic: every node of a rack lands in its rack's shard.
    rack_shards = {}
    for name, _role, rack in structure[0]:
        rack_shards.setdefault(rack, set()).add(shard_of[name])
    assert all(len(shards) == 1 for shards in rack_shards.values())


def test_cut_links_have_positive_delay_and_sorted_channels():
    structure = fat_tree_structure(4)
    part = partition_structure(structure, 4, cal=CAL)
    assert part.cut_links
    for cut in part.cut_links:
        assert cut.delay_s > 0.0
        assert cut.src_shard != cut.dst_shard
    names = [(c.src, c.dst) for c in part.cut_links]
    assert names == sorted(names)
    for (_src, _dst), la in part.lookahead:
        assert la > 0.0
    assert part.min_lookahead == CAL.switch_link_delay_s


def test_intra_shard_edges_are_not_cut():
    structure = multi_rack_structure(2, 2)
    part = partition_structure(structure, 2, cal=CAL)
    shard_of = part.shard_map()
    cut_pairs = {(c.src, c.dst) for c in part.cut_links}
    for a, b, _tier in structure[1]:
        if shard_of[a] == shard_of[b]:
            assert (a, b) not in cut_pairs and (b, a) not in cut_pairs
        else:
            assert (a, b) in cut_pairs and (b, a) in cut_pairs


def test_together_affinity_merges_racks():
    structure = multi_rack_structure(4, 2)
    part = partition_structure(structure, 4, cal=CAL,
                               together=[("rack0", "rack2")])
    shard_of = part.shard_map()
    assert shard_of["tor0"] == shard_of["tor2"]
    assert shard_of["r0h0"] == shard_of["r2h1"]
    # The merge costs one shard: 4 racks + spine in 4 groups max.
    assert part.n_shards <= 4


def test_n_shards_shrinks_to_group_count():
    structure = multi_rack_structure(2, 2)
    part = partition_structure(structure, 16, cal=CAL)
    assert part.n_shards == 3                      # rack0, rack1, spine


def test_zero_delay_cut_rejected():
    structure = multi_rack_structure(2, 2)
    flat = scaled(switch_link_delay_s=0.0)
    with pytest.raises(PartitionError):
        partition_structure(structure, 2, cal=flat)


def test_partition_is_deterministic():
    structure = fat_tree_structure(4)
    a = partition_structure(structure, 4, cal=CAL)
    b = partition_structure(structure, 4, cal=CAL)
    assert a == b
