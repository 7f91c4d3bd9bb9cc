"""Sharded co-simulation of a partitioned fabric (DESIGN.md §4.9–4.10).

Partition a topology at link boundaries into per-rack
:class:`~repro.netsim.simulator.Simulator` instances, run them in
lockstep rounds in one process, and exchange cross-shard packets under
adaptive conservative horizons derived from each cut link's
propagation delay.  Lossless scenarios are result-identical to one
simulator running the whole structure.
"""

from .boundary import IngressBridge, RemoteNode, ShardEgressLink
from .codec import frame_nbytes
from .fabric import (FabricHost, FabricSwitch, FlowPacket, ShardFabric,
                     build_fabric, compute_routes)
from .partition import (CutLink, Partition, PartitionError,
                        partition_structure)
from .runner import (ShardRunResult, UnshardedRunResult, results_identical,
                     run_sharded, run_unsharded)
from .spec import (FlowSpec, ShardScenario, rack_chaos_schedule,
                   synth_workload)

__all__ = [
    "FlowSpec", "ShardScenario", "synth_workload", "rack_chaos_schedule",
    "PartitionError", "CutLink", "Partition", "partition_structure",
    "RemoteNode", "ShardEgressLink", "IngressBridge",
    "FlowPacket", "FabricSwitch", "FabricHost", "ShardFabric",
    "build_fabric", "compute_routes",
    "ShardRunResult", "UnshardedRunResult",
    "run_sharded", "run_unsharded", "results_identical",
    "frame_nbytes",
]
