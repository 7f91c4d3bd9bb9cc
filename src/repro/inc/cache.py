"""Switch-memory cache replacement policies (paper §5.2.2 and Figure 12).

The switch's register memory acts as a cache over each application's
logical key space; the *server agent* decides which logical addresses
hold a physical mapping.  NetRPC's policy is a periodic counting
approximation of LRU: clients report per-address use counts each
*cache update window*, and the server evicts addresses that fell out of
the hot set.  The evaluation compares it against FCFS, hash-addressed
caching (ATP/ASK style), and Power-of-N (sketch style); all four are
implemented behind one interface.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List

__all__ = [
    "CachePolicy",
    "PeriodicLRUPolicy",
    "FCFSPolicy",
    "PowerOfNPolicy",
    "HashAddressPolicy",
    "make_policy",
]


class CachePolicy:
    """Decides admission and eviction for one application's mappings.

    The server agent calls :meth:`wants` when an unmapped logical address
    shows up, and :meth:`window_update` at the end of each cache update
    window with the aggregated use counts reported by clients.
    :meth:`evictions` then names mapped addresses to displace.

    ``mapped`` is read-only (``len`` / ``in`` / iteration).  :meth:`wants`
    runs once per miss and gets the manager's *live* view, not a copy —
    a policy must not keep it expecting a snapshot; :meth:`evictions`
    runs once per window and gets a ``set`` snapshot.
    """

    name = "base"

    def wants(self, logical: int, mapped: AbstractSet[int],
              capacity: int) -> bool:
        """Should ``logical`` get a mapping now (space permitting)?"""
        raise NotImplementedError

    def window_update(self, counts: Dict[int, int]) -> None:
        """Feed one window's use counts (logical address -> count)."""

    def evictions(self, mapped: AbstractSet[int], capacity: int,
                  pending: Iterable[int]) -> List[int]:
        """Mapped addresses to evict to make room for ``pending`` ones."""
        return []


class FCFSPolicy(CachePolicy):
    """First-come-first-served: fill once, never evict (paper baseline)."""

    name = "fcfs"

    def wants(self, logical: int, mapped: AbstractSet[int],
              capacity: int) -> bool:
        return len(mapped) < capacity


class PowerOfNPolicy(CachePolicy):
    """Only cache keys whose observed hit count exceeds N (sketch style).

    Gives up caching entirely once memory fills, like the paper's PoN
    baseline.
    """

    name = "pon"

    def __init__(self, n: int = 4):
        if n < 1:
            raise ValueError("PoN threshold must be >= 1")
        self.n = n
        self._hits: Dict[int, int] = {}

    def note_use(self, logical: int, count: int = 1) -> None:
        self._hits[logical] = self._hits.get(logical, 0) + count

    def wants(self, logical: int, mapped: AbstractSet[int],
              capacity: int) -> bool:
        self.note_use(logical)
        if len(mapped) >= capacity:
            return False
        return self._hits.get(logical, 0) >= self.n

    def window_update(self, counts: Dict[int, int]) -> None:
        for logical, count in counts.items():
            self.note_use(logical, count)


class HashAddressPolicy(CachePolicy):
    """Hash-addressed memory (ASK/ATP style): logical % capacity.

    There is no admission decision to make — a key is cached iff its
    hash slot is free; collisions fall back to the server forever.  The
    server agent special-cases this policy when assigning physical
    addresses (see :class:`~repro.inc.memory.MemoryManager`).
    """

    name = "hash"

    def wants(self, logical: int, mapped: AbstractSet[int],
              capacity: int) -> bool:
        return True  # admission is decided by slot availability instead

    @staticmethod
    def slot_for(logical: int, capacity: int) -> int:
        return logical % capacity


class PeriodicLRUPolicy(CachePolicy):
    """NetRPC's periodic counting-LRU (paper §5.2.2).

    Admission is eager (first use maps, like FCFS) while memory lasts.
    Each window the policy recomputes the hot set from reported counts;
    mapped addresses that are cold get evicted in favour of hot unmapped
    ones, so the cache tracks the *recent* working set.
    """

    name = "netrpc"

    def __init__(self, history_windows: int = 2,
                 max_evict_fraction: float = 1 / 16):
        if history_windows < 1:
            raise ValueError("history must cover at least one window")
        if not 0 < max_evict_fraction <= 1:
            raise ValueError("max_evict_fraction must be in (0, 1]")
        self.history_windows = history_windows
        # Anti-thrash: at most this fraction of the cache turns over per
        # window, so adaptation never starves the data path.
        self.max_evict_fraction = max_evict_fraction
        self._windows: List[Dict[int, int]] = []

    def wants(self, logical: int, mapped: AbstractSet[int],
              capacity: int) -> bool:
        return len(mapped) < capacity

    def window_update(self, counts: Dict[int, int]) -> None:
        self._windows.append(dict(counts))
        if len(self._windows) > self.history_windows:
            self._windows.pop(0)

    def _recent_counts(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for window in self._windows:
            for logical, count in window.items():
                merged[logical] = merged.get(logical, 0) + count
        return merged

    def evictions(self, mapped: AbstractSet[int], capacity: int,
                  pending: Iterable[int]) -> List[int]:
        pending = [p for p in pending if p not in mapped]
        if not pending:
            return []
        counts = self._recent_counts()
        # Hottest `capacity` addresses across mapped + pending form the
        # target set; mapped addresses outside it are eviction candidates,
        # coldest first.
        candidates = sorted(mapped, key=lambda a: counts.get(a, 0))
        pending_hot = sorted(pending, key=lambda a: -counts.get(a, 0))
        max_evict = max(1, int(capacity * self.max_evict_fraction))
        # The victims are a prefix of `candidates`: walk it by index.
        n_evict = 0
        admitted = 0
        for new in pending_hot:
            if n_evict >= max_evict:
                break
            if len(mapped) - n_evict + admitted < capacity:
                admitted += 1  # free slot available for this one
                continue
            if n_evict == len(candidates):
                break
            if counts.get(new, 0) > counts.get(candidates[n_evict], 0):
                n_evict += 1
                admitted += 1
        return candidates[:n_evict]


def make_policy(name: str, **kwargs) -> CachePolicy:
    """Factory used by benchmarks: netrpc | fcfs | pon | hash."""
    policies = {
        "netrpc": PeriodicLRUPolicy,
        "fcfs": FCFSPolicy,
        "pon": PowerOfNPolicy,
        "hash": HashAddressPolicy,
    }
    try:
        cls = policies[name.lower()]
    except KeyError:
        raise ValueError(f"unknown cache policy {name!r}; "
                         f"expected one of {sorted(policies)}") from None
    return cls(**kwargs)
