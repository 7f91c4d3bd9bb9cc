"""Behavioural models of the paper's comparison systems (Table 3).

Each baseline implements the mechanism that differentiates its measured
behaviour: SwitchML's in-order slot pool, ATP's server-ACK windows,
BytePS's software parameter servers, P4xos's in-switch acceptors,
libpaxos/DPDK-paxos's host-side message flow and ElasticSketch's
two-part sketch.  ASK (hash-addressed cache) and the pure-DPDK software
INC are NetRPC itself reconfigured — ``cache_policy="hash"`` and
``software_only=True`` at registration (``exp_micro``).
"""

from .aggregation import (
    AggChunkPacket,
    AggregationJob,
    BaselineAggSwitch,
    build_aggregation_job,
)
from .paxos import P4xosCluster, PaxosBaselineReport, SoftwarePaxosCluster
from .sketch import ElasticSketch, SketchPacket, SketchSwitch

__all__ = [
    "AggregationJob", "AggChunkPacket", "BaselineAggSwitch",
    "build_aggregation_job",
    "P4xosCluster", "SoftwarePaxosCluster", "PaxosBaselineReport",
    "ElasticSketch", "SketchSwitch", "SketchPacket",
]
