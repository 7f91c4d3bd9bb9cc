"""The INC layer: reliable transport, memory management, and host agents.

Implements paper §5 — the layer that lets the RPC layer "safely assume
that the data stream is delivered reliably and the NetFilter is fully
executed under various network conditions".
"""

from .addressing import LogicalSpace, logical_address
from .app import AppConfig, Task, TaskResult
from .cache import (
    CachePolicy,
    FCFSPolicy,
    HashAddressPolicy,
    PeriodicLRUPolicy,
    PowerOfNPolicy,
    make_policy,
)
from .client_agent import ClientAgent
from .congestion import AIMDController, DCTCPController, make_controller
from .incmap import SoftwareINCMap
from .memory import MemoryManager, MemoryRegion
from .server_agent import ServerAgent
from .transport import ReliableFlow

__all__ = [
    "LogicalSpace", "logical_address",
    "AppConfig", "Task", "TaskResult",
    "CachePolicy", "PeriodicLRUPolicy", "FCFSPolicy", "PowerOfNPolicy",
    "HashAddressPolicy", "make_policy",
    "ClientAgent", "ServerAgent",
    "AIMDController", "DCTCPController", "make_controller", "ReliableFlow",
    "SoftwareINCMap",
    "MemoryManager", "MemoryRegion",
]
