"""Topology builders: wire nodes together with duplex links.

The builders are agnostic to node types — any :class:`~repro.netsim.node.Node`
subclass works — so the same functions build NetRPC dataplanes and
baseline dataplanes.  The paper's testbed is a dumbbell: two switches,
four hosts on each side (§6.1).  The rack-scale fabrics the shard runner
(:mod:`repro.shard`) partitions are pure *structures*
(`multi_rack_structure`, `fat_tree_structure`): names, roles, rack
labels and edges only, from which each shard builds its own nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import Calibration, DEFAULT_CALIBRATION
from .link import Link, LossModel, duplex_link
from .node import Node
from .simulator import Simulator

__all__ = ["Topology", "star", "chain",
           "multi_rack_structure", "fat_tree_structure"]


class Topology:
    """A set of nodes plus a registry of the directed links between them.

    ``rack_of`` maps node names to rack labels for builders that have a
    rack notion (the shard fabric); nodes of rack-less builders simply
    do not appear in it.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.rack_of: Dict[str, str] = {}

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def connect(self, a: Node, b: Node, bandwidth_bps: float,
                delay_s: float, loss: Optional[LossModel] = None,
                **kwargs) -> Tuple[Link, Link]:
        """Create a duplex link between ``a`` and ``b`` and register it."""
        for node in (a, b):
            if node.name not in self.nodes:
                self.add_node(node)
        fwd, bwd = duplex_link(self.sim, a, b, bandwidth_bps, delay_s,
                               loss=loss, **kwargs)
        a.attach_egress(fwd)
        b.attach_egress(bwd)
        self.links[(a.name, b.name)] = fwd
        self.links[(b.name, a.name)] = bwd
        return fwd, bwd


def star(sim: Simulator, center: Node, leaves: Sequence[Node],
         cal: Calibration = DEFAULT_CALIBRATION,
         loss: Optional[LossModel] = None) -> Topology:
    """All leaves attach to a single center (one-switch rack)."""
    topo = Topology(sim)
    topo.add_node(center)
    for leaf in leaves:
        topo.connect(leaf, center, cal.link_bandwidth_bps,
                     cal.host_link_delay_s, loss=loss,
                     queue_capacity_pkts=cal.switch_queue_capacity_pkts,
                     ecn_threshold_pkts=cal.switch_ecn_threshold_pkts)
    return topo


def chain(sim: Simulator, nodes: Sequence[Node],
          cal: Calibration = DEFAULT_CALIBRATION,
          loss: Optional[LossModel] = None) -> Topology:
    """Connect nodes in a line (used for the two-switch pipeline, §6.6)."""
    if len(nodes) < 2:
        raise ValueError("a chain needs at least two nodes")
    topo = Topology(sim)
    for node in nodes:
        topo.add_node(node)
    for a, b in zip(nodes, nodes[1:]):
        topo.connect(a, b, cal.link_bandwidth_bps, cal.switch_link_delay_s,
                     loss=loss,
                     queue_capacity_pkts=cal.switch_queue_capacity_pkts,
                     ecn_threshold_pkts=cal.switch_ecn_threshold_pkts)
    return topo


# ---------------------------------------------------------------------------
# rack-scale structures
# ---------------------------------------------------------------------------
# A structure is ``(nodes, edges)``:
#   nodes: list of (name, role, rack) with role in {"host", "switch"}
#   edges: list of (a, b, tier) with tier in {"host", "fabric"} — the
#          tier selects host-link vs switch-link calibration parameters.
# Both lists are emitted in a fixed deterministic order (hosts of rack 0,
# then its switch, then rack 1, ... then the spine/core tier), so every
# consumer — the shard partitioner and each shard's fabric — sees
# identical orderings.

Structure = Tuple[List[Tuple[str, str, str]], List[Tuple[str, str, str]]]


def multi_rack_structure(n_racks: int, hosts_per_rack: int,
                         n_spines: int = 1) -> Structure:
    """Racks of hosts behind a ToR each, every ToR uplinked to every
    spine (a leaf-spine fabric).  Rack labels: ``rack0``.. for the ToR
    and its hosts, ``spine`` for the spine tier."""
    if n_racks < 1 or hosts_per_rack < 1 or n_spines < 1:
        raise ValueError("need >= 1 rack, host per rack, and spine")
    nodes: List[Tuple[str, str, str]] = []
    edges: List[Tuple[str, str, str]] = []
    spines = [f"spine{s}" for s in range(n_spines)]
    for r in range(n_racks):
        rack = f"rack{r}"
        tor = f"tor{r}"
        for h in range(hosts_per_rack):
            host = f"r{r}h{h}"
            nodes.append((host, "host", rack))
            edges.append((host, tor, "host"))
        nodes.append((tor, "switch", rack))
        for spine in spines:
            edges.append((tor, spine, "fabric"))
    for spine in spines:
        nodes.append((spine, "switch", "spine"))
    return nodes, edges


def fat_tree_structure(k: int) -> Structure:
    """Classic k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
    switches, (k/2)^2 cores, k/2 hosts per edge switch.  Rack labels:
    ``pod0``.. for everything inside a pod, ``core`` for the core tier.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    nodes: List[Tuple[str, str, str]] = []
    edges: List[Tuple[str, str, str]] = []
    for p in range(k):
        rack = f"pod{p}"
        for e in range(half):
            edge_sw = f"p{p}e{e}"
            for h in range(half):
                host = f"p{p}e{e}h{h}"
                nodes.append((host, "host", rack))
                edges.append((host, edge_sw, "host"))
            nodes.append((edge_sw, "switch", rack))
        for a in range(half):
            agg = f"p{p}a{a}"
            nodes.append((agg, "switch", rack))
            for e in range(half):
                edges.append((f"p{p}e{e}", agg, "fabric"))
    for c in range(half * half):
        core = f"core{c}"
        nodes.append((core, "switch", "core"))
    # Aggregation switch a of every pod connects to cores
    # [a*k/2, (a+1)*k/2) — the standard fat-tree core wiring.
    for p in range(k):
        for a in range(half):
            for c in range(a * half, (a + 1) * half):
                edges.append((f"p{p}a{a}", f"core{c}", "fabric"))
    return nodes, edges
