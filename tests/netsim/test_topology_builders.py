"""Fat-tree and multi-rack topology structures (DESIGN.md §4.9).

The structures are pure data — ``(nodes, edges)`` name tuples — so the
counting identities of the canonical topologies are checked exactly:
a k-ary fat tree has ``5k²/4`` switches and ``k³/4`` hosts; a rack
fabric has one ToR per rack and a full ToR x spine bipartite core.
"""

import pytest

from repro.netsim import fat_tree_structure, multi_rack_structure


def _degrees(edges):
    deg = {}
    for a, b, _tier in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return deg


def _connected(structure):
    nodes, edges = structure
    adj = {name: [] for name, _r, _k in nodes}
    for a, b, _tier in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {nodes[0][0]}
    frontier = [nodes[0][0]]
    while frontier:
        frontier = [p for n in frontier for p in adj[n] if p not in seen
                    if not seen.add(p)]
    return len(seen) == len(nodes)


def test_multi_rack_structure_counts_and_racks():
    nodes, edges = multi_rack_structure(3, 4, n_spines=2)
    roles = {}
    racks = {}
    for name, role, rack in nodes:
        roles.setdefault(role, []).append(name)
        racks.setdefault(rack, []).append(name)
    assert len(roles["host"]) == 12
    assert len(roles["switch"]) == 3 + 2           # ToRs + spines
    # Each rack holds its hosts plus its ToR; spines get their own label.
    for r in range(3):
        assert len(racks[f"rack{r}"]) == 5
    assert sorted(racks["spine"]) == ["spine0", "spine1"]
    # hosts x 1 uplink + full ToR x spine mesh
    assert len(edges) == 12 + 3 * 2
    host_edges = [e for e in edges if e[2] == "host"]
    assert len(host_edges) == 12
    assert _connected((nodes, edges))


def test_fat_tree_structure_counts():
    k = 4
    nodes, edges = fat_tree_structure(k)
    hosts = [n for n, role, _r in nodes if role == "host"]
    switches = [n for n, role, _r in nodes if role == "switch"]
    assert len(hosts) == k ** 3 // 4               # 16
    assert len(switches) == 5 * k * k // 4         # 20
    # hosts + edge-agg mesh per pod + agg-core uplinks
    assert len(edges) == k ** 3 // 4 + k * (k // 2) ** 2 + k * k * k // 4
    deg = _degrees(edges)
    for name in hosts:
        assert deg[name] == 1
    for c in range(k * k // 4):
        assert deg[f"core{c}"] == k                # one per pod
    assert _connected((nodes, edges))


def test_fat_tree_rack_labels_group_pods():
    nodes, _edges = fat_tree_structure(4)
    racks = {}
    for name, _role, rack in nodes:
        racks.setdefault(rack, set()).add(name)
    assert set(racks) == {"pod0", "pod1", "pod2", "pod3", "core"}
    assert racks["core"] == {"core0", "core1", "core2", "core3"}
    # Each pod: 4 hosts + 2 edge + 2 agg switches.
    assert len(racks["pod0"]) == 8


def test_fat_tree_structure_rejects_odd_k():
    with pytest.raises(ValueError):
        fat_tree_structure(3)
    with pytest.raises(ValueError):
        fat_tree_structure(0)
