"""What one network hop of the rack-scale fabric costs in Python calls.

Forwarding is the whole workload of a fabric run: a switch hop is a
cached ECMP lookup plus ``Link.send``, and the link's delivery event
hands the packet to the next node.  The figures below are Python calls
(``tests/callcount.py``), the same on every machine and run, so the
bounds are exact where a timing is not.
"""

from repro.netsim import Simulator, scaled
from repro.netsim.node import Node
from repro.netsim.topology import fat_tree_structure
from repro.shard import (ShardScenario, partition_structure, run_sharded,
                         synth_workload)
from repro.shard.fabric import FabricHost, FabricSwitch, build_fabric

from ..callcount import callers_of, count_calls

CAL = scaled(switch_link_delay_s=10e-6)


def _scenario():
    structure = fat_tree_structure(4)
    flows = synth_workload(structure, 400, seed=0, t0=0.0, t1=1e-3)
    return ShardScenario(structure=structure, flows=flows, until=2e-3,
                         seed=0, cal=CAL)


# Python calls per delivered flow packet of a k=4 fat tree sharded four
# ways and run in-process (setup, rounds and boundary replay included).
# With each switch hop going through Node.send and the link counters in
# a Counter it was 32.6 (netsim 20.4, shard 12.2); with the switch
# caching its egress Link it is 30.0 (netsim 17.8, shard 12.2).  The
# bounds sit between the two.
FABRIC_HOP_TOTAL_BUDGET = 31.0
FABRIC_HOP_NETSIM_BUDGET = 19.0


def test_fabric_hop_call_budget():
    scenario = _scenario()
    partition = partition_structure(scenario.structure, 4, cal=CAL)
    result, calls = count_calls(run_sharded, scenario, partition=partition)
    emitted = sum(flow.n_pkts for flow in scenario.flows)
    delivered = sum(rec[0] for rec in result.flows.values())
    assert delivered == emitted > 1000
    per_pkt = {package: count / delivered
               for package, count in calls.items()}
    assert sum(per_pkt.values()) <= FABRIC_HOP_TOTAL_BUDGET, per_pkt
    assert 0 < per_pkt["netsim"] <= FABRIC_HOP_NETSIM_BUDGET, per_pkt


def test_switch_forwards_without_node_send():
    # Hosts emit through Node.send; a switch hop goes straight to the
    # egress Link its per-flow cache holds.
    scenario = _scenario()
    sim = Simulator(seed=0)
    fabric = build_fabric(sim, scenario.structure, cal=CAL)
    fabric.install_workload(scenario.flows)
    _, callers = callers_of(Node.send.__code__, sim.run, scenario.until)
    switches = [node for node in fabric.topo.nodes.values()
                if isinstance(node, FabricSwitch)]
    forwarded = sum(switch.stats["tx_pkts"] for switch in switches)
    assert forwarded > sum(flow.n_pkts for flow in scenario.flows)
    assert set(callers) == {FabricHost.emit_flow.__code__}
