"""Key -> 32-bit logical address mapping (paper §5.2.2).

The RPC layer supports maps with arbitrary keys; the INC layer exposes a
32-bit *logical* address space per application.  Host agents hash keys
of any type/length into that space with a deterministic hash (so every
client and the server compute the same address independently).
Colliding keys are diverted to the payload/server path — the paper's
"we handle all collisions by putting the colliding keys into the
payload to bypass the switch INC".
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional, Set

__all__ = ["logical_address", "LogicalSpace"]

_SPACE_BITS = 32
_SPACE_MASK = (1 << _SPACE_BITS) - 1


def logical_address(key: Any) -> int:
    """Deterministic 32-bit logical address for an application key.

    Integer keys map through a bit-mix (so that dense ranges spread);
    strings/bytes go through CRC32.  The function is stable across
    processes — a requirement, since clients and servers derive the
    mapping independently.
    """
    if isinstance(key, bool):  # bool is an int subclass; treat as int
        key = int(key)
    if isinstance(key, int):
        # Fibonacci hashing: good avalanche for sequential keys.
        return (key * 0x9E3779B1) & _SPACE_MASK
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8")) & _SPACE_MASK
    if isinstance(key, bytes):
        return zlib.crc32(key) & _SPACE_MASK
    raise TypeError(
        f"INC map keys must be int, str, or bytes; got {type(key).__name__}")


class LogicalSpace:
    """Tracks one application's logical address assignments and collisions.

    The first key claiming an address owns it; later keys hashing to the
    same address are recorded as *collisions* and must take the server
    (payload) path forever.
    """

    def __init__(self):
        self._owner: Dict[int, Any] = {}
        self._collided: Set[Any] = set()
        # A key's outcome is permanent (ownership never changes hands,
        # collisions are forever), so resolve() is memoizable.
        self._memo: Dict[Any, Optional[int]] = {}

    def resolve(self, key: Any) -> Optional[int]:
        """Logical address for ``key``, or None if it collided."""
        memo = self._memo
        if key in memo:
            return memo[key]
        if key in self._collided:
            memo[key] = None
            return None
        addr = logical_address(key)
        owner = self._owner.get(addr)
        if owner is None:
            self._owner[addr] = key
        elif owner != key:
            self._collided.add(key)
            memo[key] = None
            return None
        memo[key] = addr
        return addr

