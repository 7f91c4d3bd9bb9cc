"""Control plane: the NetRPC controller, timeouts, and deployment builders."""

from .controller import Controller, MemoryPool, Registration
from .deployment import Deployment, build_chain, build_rack
from .timeout import TimeoutMonitor

__all__ = [
    "Controller", "MemoryPool", "Registration",
    "Deployment", "build_rack", "build_chain",
    "TimeoutMonitor",
]
