"""Tests for the server-side memory manager and linear allocator."""

import random

import pytest

from repro.inc import LinearAllocator, MemoryManager, MemoryRegion
from repro.inc.cache import FCFSPolicy, HashAddressPolicy, make_policy


class TestMemoryRegion:
    def test_contains(self):
        region = MemoryRegion(100, 50)
        assert 100 in region and 149 in region
        assert 99 not in region and 150 not in region

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            MemoryRegion(-1, 10)
        with pytest.raises(ValueError):
            MemoryRegion(0, -5)


class TestLinearAllocator:
    def test_circular_addressing(self):
        alloc = LinearAllocator(MemoryRegion(1000, 64))
        assert alloc.physical(0) == 1000
        assert alloc.physical(63) == 1063
        assert alloc.physical(64) == 1000  # wraps

    def test_window_chunks(self):
        alloc = LinearAllocator(MemoryRegion(0, 320))
        assert alloc.window_chunks == 10

    def test_region_must_be_multiple_of_32(self):
        with pytest.raises(ValueError):
            LinearAllocator(MemoryRegion(0, 30))
        with pytest.raises(ValueError):
            LinearAllocator(MemoryRegion(0, 0))

    def test_negative_index_rejected(self):
        alloc = LinearAllocator(MemoryRegion(0, 32))
        with pytest.raises(ValueError):
            alloc.physical(-1)


class TestMemoryManager:
    def test_grant_assigns_from_region(self):
        mm = MemoryManager(MemoryRegion(500, 4))
        phys = mm.request(logical=777, now=0.0)
        assert phys in MemoryRegion(500, 4)
        assert mm.lookup(777) == phys
        assert mm.logical_of(phys) == 777

    def test_repeat_request_returns_same_mapping(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        assert mm.request(1, 0.0) == mm.request(1, 0.0)

    def test_denies_when_full(self):
        mm = MemoryManager(MemoryRegion(0, 2))
        mm.request(1, 0.0)
        mm.request(2, 0.0)
        assert mm.request(3, 0.0) is None
        assert mm.stats["denied"] == 1

    def test_eviction_lifecycle_with_quarantine(self):
        mm = MemoryManager(MemoryRegion(0, 1), quarantine_s=1.0)
        phys = mm.request(1, now=0.0)
        mm.finish_eviction(1, now=0.0)
        assert mm.lookup(1) is None
        # Still quarantined: the slot must not be reused yet.
        assert mm.request(2, now=0.5) is None
        # After the grace period the register is free again.
        assert mm.request(2, now=1.5) == phys

    def test_window_reports_evictions_for_hot_pending(self):
        mm = MemoryManager(MemoryRegion(0, 1), quarantine_s=0.0)
        mm.request(1, 0.0)
        mm.note_use(1, 1)
        mm.request(2, 0.0)   # denied, becomes pending-hot
        mm.note_use(2, 100)
        victims = mm.end_window(now=1.0)
        assert victims and victims[0][0] == 1

    def test_hash_policy_uses_fixed_slots(self):
        mm = MemoryManager(MemoryRegion(0, 8), policy=HashAddressPolicy())
        phys = mm.request(10, 0.0)
        assert phys == 10 % 8
        # A colliding logical address is denied permanently.
        assert mm.request(18, 0.0) is None

    def test_force_unmap_returns_physical(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        phys = mm.request(5, 0.0)
        assert mm.force_unmap(5, 0.0) == phys
        assert mm.lookup(5) is None

    def test_mapped_count_and_capacity(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        assert mm.capacity == 4
        mm.request(1, 0.0)
        assert mm.mapped_count == 1

    def test_mapped_logicals_is_a_live_view(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        view = mm.mapped_logicals()
        assert len(view) == 0
        mm.request(7, 0.0)
        mm.request(9, 0.0)
        assert set(view) == {7, 9} and 7 in view
        mm.finish_eviction(7, 0.0)
        assert set(view) == {9} and 7 not in view
        assert mm.mapped_logicals() is view


# ---------------------------------------------------------------------------
# Admission differential: live view vs the per-call set copy it replaced
# ---------------------------------------------------------------------------
class _CopyingManager(MemoryManager):
    """Reference: ``request``/``end_window`` as they were before the live
    view — every policy call gets a fresh ``set`` copy of the mapping."""

    def request(self, logical, now):
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
        mapped = set(self._logical_to_phys)
        if not self.policy.wants(logical, mapped, self.capacity) \
                or not self._free:
            self._pending_hot.add(logical)
            self.stats["denied"] += 1
            return None
        phys = self._free.popleft()
        self._grant(logical, phys)
        return phys

    def end_window(self, now):
        self.policy.window_update(self._window_counts)
        self._window_counts = {}
        victims = self.policy.evictions(set(self._logical_to_phys),
                                        self.capacity, self._pending_hot)
        self._pending_hot = set()
        return [(logical, self._logical_to_phys[logical])
                for logical in victims if logical in self._logical_to_phys]


def _drive(manager_cls, policy_name, seed, capacity=24, steps=1500):
    """One seeded schedule of request / note_use / end_window /
    finish_eviction with quarantine expiry; returns the decision log."""
    rng = random.Random(seed)
    mm = manager_cls(MemoryRegion(100, capacity),
                     policy=make_policy(policy_name), quarantine_s=3.0)
    universe = [rng.getrandbits(32) for _ in range(capacity * 4)]
    # Zipf-ish popularity so a hot set exists and drifts: the hot head
    # rotates through the universe as the schedule advances.
    weights = [1.0 / (rank + 1) for rank in range(len(universe))]
    log = []
    now = 0.0
    for step in range(steps):
        now += rng.random()
        shift = step // 300 * capacity
        roll = rng.random()
        if roll < 0.70:
            pick = rng.choices(range(len(universe)), weights)[0]
            logical = universe[(pick + shift) % len(universe)]
            log.append(("request", logical, mm.request(logical, now)))
        elif roll < 0.95:
            pick = rng.choices(range(len(universe)), weights)[0]
            mm.note_use(universe[(pick + shift) % len(universe)],
                        rng.randint(1, 5))
        else:
            victims = mm.end_window(now)
            log.append(("victims", tuple(victims)))
            for logical, _phys in victims:
                # Quarantine (3.0) outlasts a few steps, so some requests
                # land while the freed register is still held back.
                mm.finish_eviction(logical, now)
    log.append(("stats", tuple(sorted(mm.stats.items())),
                tuple(sorted(mm.mapped_logicals()))))
    return log


@pytest.mark.parametrize("policy_name", ["netrpc", "fcfs", "pon", "hash"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_view_admission_matches_set_copy_reference(policy_name, seed):
    got = _drive(MemoryManager, policy_name, seed)
    want = _drive(_CopyingManager, policy_name, seed)
    assert got == want
    # The schedule must exercise grants and denials (and, for the one
    # policy that evicts, victims) or the comparison is vacuous.
    outcomes = [entry[2] for entry in got if entry[0] == "request"]
    assert any(o is None for o in outcomes)
    assert any(o is not None for o in outcomes)
    if policy_name == "netrpc":
        assert any(entry[0] == "victims" and entry[1] for entry in got)


class _SpyPolicy(FCFSPolicy):
    """Records the ``mapped`` argument of every admission question."""

    def __init__(self):
        self.seen = []

    def wants(self, logical, mapped, capacity):
        self.seen.append(mapped)
        return super().wants(logical, mapped, capacity)


def test_request_passes_the_same_view_on_successive_misses():
    spy = _SpyPolicy()
    mm = MemoryManager(MemoryRegion(0, 2), policy=spy)
    mm.request(1, 0.0)
    mm.request(2, 0.0)
    assert mm.request(3, 0.0) is None      # full: denied
    assert mm.request(4, 0.0) is None
    # No per-miss copy: both denials saw one object, the live view.
    assert spy.seen[-1] is spy.seen[-2]
    assert spy.seen[-1] is mm.mapped_logicals()
    assert set(spy.seen[-1]) == {1, 2}
