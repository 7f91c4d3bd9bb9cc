"""Server-agent switch-memory management (paper §5.2.2).

The server agent owns the logical -> physical mapping for all of its
clients (the paper's "multiple clients of a single application" design)
and hands out *grants* piggybacked on ACKs.  A pluggable
:class:`~repro.inc.cache.CachePolicy` drives admission and the periodic
eviction that implements NetRPC's counting-LRU cache.

An evicted address is free again at once: eviction bumped its
register's generation, and a grant carries the generation in the
address word, so the switch diverts a stale grant's access to the
server's software path (DESIGN.md §4.1(5)).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, KeysView, List, Optional, Set, Tuple

from repro.protocol import ADDR_BITS

from .cache import CachePolicy, HashAddressPolicy, PeriodicLRUPolicy

__all__ = ["MemoryRegion", "MemoryManager"]


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

    def __init__(self, region: MemoryRegion,
                 policy: Optional[CachePolicy] = None):
        self.region = region
        self.policy = policy or PeriodicLRUPolicy()
        self._logical_to_phys: Dict[int, int] = {}
        # Live read-only set view of the mapped logicals, created once:
        # the dict is only ever mutated in place, so the view tracks it.
        self._mapped = self._logical_to_phys.keys()
        self._phys_to_logical: Dict[int, int] = {}
        # Free registers: the never-granted rest of the region, kept as a
        # bound and handed out lowest first, then evicted ones in order.
        self._fresh = region.base
        self._evicted: Deque[int] = deque()
        # Evicted physical address -> its register's generation.
        self._generations: Dict[int, int] = {}
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
    def address_word(self, phys: int) -> int:
        """What a grant of ``phys`` carries: the address and its
        register's current generation."""
        return phys | self._generations.get(phys, 0) << ADDR_BITS

    def request(self, logical: int) -> Optional[int]:
        """Try to grant a mapping for ``logical``; None if denied.

        Called when the server sees an unmapped key.  Hash addressing is
        special-cased: the slot is fixed by the hash, collisions are
        permanent fallbacks.
        """
        existing = self._logical_to_phys.get(logical)
        if existing is not None:
            return existing

        if isinstance(self.policy, HashAddressPolicy):
            slot = self.region.base + HashAddressPolicy.slot_for(
                logical, self.region.size)
            if slot in self._phys_to_logical:
                self.stats["denied"] += 1
                return None
            self._grant(logical, slot)
            return slot

        phys = None
        if self.policy.wants(logical, self._mapped, self.capacity):
            phys = self._pop_free()
        if phys is None:
            self._pending_hot.add(logical)
            self.stats["denied"] += 1
            return None
        self._grant(logical, phys)
        return phys

    def _pop_free(self) -> Optional[int]:
        if self._fresh < self.region.base + self.region.size:
            self._fresh += 1
            return self._fresh - 1
        return self._evicted.popleft() if self._evicted else None

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

    def finish_eviction(self, logical: int, generation: int) -> None:
        """Complete an eviction: unmap and free the register, noting the
        generation the eviction gave it."""
        phys = self._logical_to_phys.pop(logical, None)
        if phys is None:
            return
        del self._phys_to_logical[phys]
        self._generations[phys] = generation
        self._evicted.append(phys)
        self.stats["evictions"] += 1
