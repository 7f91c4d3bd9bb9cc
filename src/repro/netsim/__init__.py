"""Discrete-event network simulator substrate for the NetRPC reproduction.

This package replaces the paper's physical testbed (Tofino switches,
100 Gbps NICs, DPDK) with a deterministic, seeded event simulator.  See
DESIGN.md §1 for the substitution rationale.
"""

from .calibration import Calibration, DEFAULT_CALIBRATION, scaled
from .events import AllOf, AnyOf, Event, EventFailed, Interrupt, Timeout
from .faults import (
    ChaosSchedule,
    CompositeFault,
    Corrupt,
    Duplicate,
    FaultModel,
    HostPause,
    InvariantChecker,
    LinkFault,
    LinkFlap,
    Reorder,
    SwitchReboot,
)
from .link import (
    ETHERNET_OVERHEAD_BYTES,
    BurstLoss,
    Link,
    LossModel,
    NoLoss,
    RandomLoss,
    ScriptedLoss,
    duplex_link,
)
from .node import Host, Node
from .simulator import Process, SimulationError, Simulator, WallClockExceeded
from .topology import (
    Topology,
    chain,
    dumbbell,
    fat_tree,
    fat_tree_structure,
    multi_rack,
    multi_rack_structure,
    star,
)
from .trace import Counter, LatencyRecorder, RateMeter, mean, percentile

__all__ = [
    "Simulator", "Process", "SimulationError", "WallClockExceeded",
    "Event", "Timeout", "AnyOf", "AllOf", "Interrupt", "EventFailed",
    "Link", "duplex_link", "LossModel", "NoLoss", "RandomLoss", "BurstLoss",
    "ScriptedLoss", "ETHERNET_OVERHEAD_BYTES",
    "FaultModel", "Reorder", "Duplicate", "Corrupt", "LinkFlap",
    "CompositeFault", "LinkFault", "SwitchReboot", "HostPause",
    "ChaosSchedule", "InvariantChecker",
    "Node", "Host",
    "Topology", "star", "dumbbell", "chain",
    "multi_rack_structure", "fat_tree_structure", "multi_rack", "fat_tree",
    "Counter", "RateMeter", "LatencyRecorder",
    "mean", "percentile",
    "Calibration", "DEFAULT_CALIBRATION", "scaled",
]
