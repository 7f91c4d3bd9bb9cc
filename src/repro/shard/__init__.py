"""Sharded multi-core co-simulation (DESIGN.md §4.9–4.10).

Partition a topology at link boundaries into per-rack
:class:`~repro.netsim.simulator.Simulator` instances, run them in
parallel worker processes, and exchange cross-shard packets under
adaptive conservative horizons derived from each cut link's
propagation delay.  Boundary traffic rides zero-copy shared-memory
frames packed by a fixed-width codec (pickled frames over the control
pipes where POSIX shm is missing).  ``workers=1`` runs the identical
protocol in-process; ``workers=N`` is byte-identical to it under
either transport.
"""

from .boundary import IngressBridge, RemoteNode, ShardEgressLink
from .codec import CodecTables, decode_frame, encode_frame, frame_nbytes
from .fabric import (FabricHost, FabricSwitch, FlowPacket, ShardFabric,
                     build_fabric, compute_routes)
from .partition import (CutLink, Partition, PartitionError,
                        partition_structure)
from .placement import ControlPlacement, plan_control_placement
from .runner import (ShardRunResult, ShardWorkerDied, ShardWorkerHung,
                     UnshardedRunResult, WORKERS_ENV, default_workers,
                     results_identical, run_sharded, run_unsharded)
from .spec import (FlowSpec, ShardScenario, rack_chaos_schedule,
                   synth_workload)
from .transport import ShmChannelBus, TRANSPORTS

__all__ = [
    "FlowSpec", "ShardScenario", "synth_workload", "rack_chaos_schedule",
    "PartitionError", "CutLink", "Partition", "partition_structure",
    "RemoteNode", "ShardEgressLink", "IngressBridge",
    "FlowPacket", "FabricSwitch", "FabricHost", "ShardFabric",
    "build_fabric", "compute_routes",
    "ControlPlacement", "plan_control_placement",
    "WORKERS_ENV", "default_workers", "ShardRunResult",
    "UnshardedRunResult", "ShardWorkerDied", "ShardWorkerHung",
    "run_sharded", "run_unsharded",
    "results_identical",
    "CodecTables", "encode_frame", "decode_frame", "frame_nbytes",
    "TRANSPORTS", "ShmChannelBus",
]
