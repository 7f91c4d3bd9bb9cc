"""Server-agent switch-memory management (paper §5.2.2).

The server agent owns the logical -> physical mapping for all of its
clients (the paper's "multiple clients of a single application" design)
and hands out *grants* piggybacked on ACKs.  A pluggable
:class:`~repro.inc.cache.CachePolicy` drives admission and the periodic
eviction that implements NetRPC's counting-LRU cache.

Evicted physical addresses go through a *quarantine* period before
reuse so that clients holding a stale grant cannot write into memory
that has been re-granted to another key (revocations are piggybacked on
ACKs, so active clients learn quickly; quarantine covers the in-flight
window).  A stale write that lands after the eviction read is folded
back to the address's last owner when it is granted again
(:meth:`MemoryManager.take_last_owner`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, KeysView, List, Optional, Set, Tuple

from .cache import CachePolicy, HashAddressPolicy, PeriodicLRUPolicy

__all__ = ["MemoryRegion", "MemoryManager", "FreeList"]


class FreeList:
    """FIFO free list over ``[base, base + size)`` with O(1) removal.

    Replaces the seed's ``deque`` (whose ``remove`` was an O(n) scan over
    up to ``size`` entries — ~0.3 ms per call on a 1.3M-slot region).
    Pop order is identical to the deque it replaces: the initial address
    range drains lowest-first, recycled addresses follow in append
    (FIFO) order.  The untouched portion of the initial range is kept as
    a pair of bounds instead of materialised entries, so construction is
    O(1) too.
    """

    __slots__ = ("_fresh_next", "_fresh_end", "_holes", "_recycled")

    def __init__(self, base: int, size: int):
        self._fresh_next = base          # next never-granted address
        self._fresh_end = base + size
        self._holes: Set[int] = set()    # fresh-range addrs removed early
        # dict used as an ordered set: O(1) append / popleft / discard.
        self._recycled: Dict[int, None] = {}

    def __len__(self) -> int:
        fresh = self._fresh_end - self._fresh_next - len(self._holes)
        return fresh + len(self._recycled)

    def __bool__(self) -> bool:
        return len(self) > 0

    def popleft(self) -> int:
        holes = self._holes
        while self._fresh_next < self._fresh_end:
            addr = self._fresh_next
            self._fresh_next = addr + 1
            if addr in holes:
                holes.discard(addr)
            else:
                return addr
        if not self._recycled:
            raise IndexError("pop from an empty free list")
        addr = next(iter(self._recycled))
        del self._recycled[addr]
        return addr

    def append(self, addr: int) -> None:
        self._recycled[addr] = None

    def discard(self, addr: int) -> None:
        """Remove ``addr`` if present (hash-addressing grant path)."""
        if addr in self._recycled:
            del self._recycled[addr]
        elif self._fresh_next <= addr < self._fresh_end:
            self._holes.add(addr)


class MemoryRegion:
    """A contiguous range of global physical addresses reserved for an app."""

    def __init__(self, base: int, size: int):
        if size < 0 or base < 0:
            raise ValueError("region base/size must be non-negative")
        self.base = base
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryRegion[{self.base}, {self.base + self.size})"


class MemoryManager:
    """Logical -> physical mapping plus grant/evict lifecycle for one app."""

    def __init__(self, region: MemoryRegion, policy: Optional[CachePolicy] = None,
                 quarantine_s: float = 5e-3):
        self.region = region
        self.policy = policy or PeriodicLRUPolicy()
        self.quarantine_s = quarantine_s
        self._logical_to_phys: Dict[int, int] = {}
        # Live read-only set view of the mapped logicals, created once:
        # the dict is only ever mutated in place, so the view tracks it.
        self._mapped = self._logical_to_phys.keys()
        self._phys_to_logical: Dict[int, int] = {}
        self._free = FreeList(region.base, region.size)
        self._quarantined: Deque[Tuple[float, int]] = deque()
        # Evicted physical address -> the logical it held (take_last_owner).
        self._last_owner: Dict[int, int] = {}
        self._pending_hot: Set[int] = set()
        self._window_counts: Dict[int, int] = {}
        self.stats = {"grants": 0, "evictions": 0, "denied": 0}

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.region.size

    def lookup(self, logical: int) -> Optional[int]:
        return self._logical_to_phys.get(logical)

    def mapped_logicals(self) -> KeysView[int]:
        """Live view of the mapped logical addresses (no copy).

        It changes as mappings are granted and evicted: snapshot it
        (``list(...)``) before a loop that unmaps.
        """
        return self._mapped

    # ------------------------------------------------------------------
    def request(self, logical: int, now: float) -> Optional[int]:
        """Try to grant a mapping for ``logical``; None if denied.

        Called when the server sees an unmapped key.  Hash addressing is
        special-cased: the slot is fixed by the hash, collisions are
        permanent fallbacks.
        """
        existing = self._logical_to_phys.get(logical)
        if existing is not None:
            return existing
        self._release_expired(now)

        if isinstance(self.policy, HashAddressPolicy):
            slot = self.region.base + HashAddressPolicy.slot_for(
                logical, self.region.size)
            if slot in self._phys_to_logical:
                self.stats["denied"] += 1
                return None
            self._grant(logical, slot)
            self._free.discard(slot)
            return slot

        if not self.policy.wants(logical, self._mapped, self.capacity):
            self._pending_hot.add(logical)
            self.stats["denied"] += 1
            return None
        if not self._free:
            self._pending_hot.add(logical)
            self.stats["denied"] += 1
            return None
        phys = self._free.popleft()
        self._grant(logical, phys)
        return phys

    def _grant(self, logical: int, phys: int) -> None:
        self._logical_to_phys[logical] = phys
        self._phys_to_logical[phys] = logical
        self.stats["grants"] += 1

    # ------------------------------------------------------------------
    def note_use(self, logical: int, count: int = 1) -> None:
        """Record client-reported use counts for the current window."""
        self._window_counts[logical] = \
            self._window_counts.get(logical, 0) + count

    def end_window(self) -> List[Tuple[int, int]]:
        """Close the cache-update window (§5.2.2).

        Feeds the window's counts to the policy and returns the
        ``(logical, physical)`` pairs chosen for eviction.  The caller
        (server agent) must read-and-clear those registers, merge the
        values into its software map, broadcast revocations, and finally
        call :meth:`finish_eviction`.
        """
        self.policy.window_update(self._window_counts)
        self._window_counts = {}
        # Once per window (not per miss) the policy gets a set snapshot
        # rather than the live view: the counting-LRU breaks ties among
        # equally cold candidates by iteration order, and the order that
        # Fig. 12 and the golden pins record is this set's, not the
        # dict's insertion order.
        victims = self.policy.evictions(set(self._logical_to_phys),
                                        self.capacity, self._pending_hot)
        self._pending_hot = set()
        out = []
        for logical in victims:
            phys = self._logical_to_phys.get(logical)
            if phys is not None:
                out.append((logical, phys))
        return out

    def finish_eviction(self, logical: int, now: float) -> None:
        """Complete an eviction: unmap and quarantine the register."""
        phys = self._logical_to_phys.pop(logical, None)
        if phys is None:
            return
        del self._phys_to_logical[phys]
        self._last_owner[phys] = logical
        self._quarantined.append((now + self.quarantine_s, phys))
        self.stats["evictions"] += 1

    def take_last_owner(self, phys: int) -> Optional[int]:
        """Pop the logical ``phys`` held before its eviction (None if
        never evicted); asked once, when ``phys`` is granted again."""
        return self._last_owner.pop(phys, None)

    def _release_expired(self, now: float) -> None:
        while self._quarantined and self._quarantined[0][0] <= now:
            _, phys = self._quarantined.popleft()
            self._free.append(phys)
