"""gRPC-style status codes and errors for the NetRPC RPC layer."""

from __future__ import annotations

import enum

__all__ = ["StatusCode", "RpcError"]


class StatusCode(enum.Enum):
    OK = 0
    CANCELLED = 1
    UNKNOWN = 2
    INVALID_ARGUMENT = 3
    DEADLINE_EXCEEDED = 4
    NOT_FOUND = 5
    UNIMPLEMENTED = 12
    UNAVAILABLE = 14


class RpcError(Exception):
    """Raised by stubs on a failed call."""

    def __init__(self, code: StatusCode, details: str = ""):
        super().__init__(f"{code.name}: {details}")
        self.code = code
        self.details = details
