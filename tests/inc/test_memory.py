"""Tests for the server-side memory manager and linear allocation."""

import random

import pytest

from repro.inc import AppConfig, MemoryManager, MemoryRegion
from repro.inc.cache import FCFSPolicy, HashAddressPolicy, make_policy
from repro.protocol import ADDR_BITS, RIPProgram


class TestMemoryRegion:
    def test_contains(self):
        # A manager on the region grants exactly [base, base + size).
        mm = MemoryManager(MemoryRegion(100, 50), policy=FCFSPolicy())
        granted = {mm.request(logical) for logical in range(60)}
        assert granted == set(range(100, 150)) | {None}

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            MemoryRegion(-1, 10)
        with pytest.raises(ValueError):
            MemoryRegion(0, -5)


class TestLinearAllocator:
    """SyncAgtr's linear allocation: aligned 32-pair chunks must cover
    every memory segment once, so a linear app's region is a multiple of
    32 (``AppConfig`` checks it; the client agent does the addressing)."""

    @staticmethod
    def _config(size):
        program = RIPProgram(app_name="LIN", add_to_field="r.kvs",
                             get_field="r.kvs")
        return AppConfig(gaid=1, program=program, server="s0",
                         clients=("c0",), value_region=MemoryRegion(0, size),
                         counter_region=MemoryRegion(size, 8), linear=True)

    def test_region_must_be_multiple_of_32(self):
        assert self._config(64).value_region.size == 64
        with pytest.raises(ValueError, match="multiples of 32"):
            self._config(30)


class TestMemoryManager:
    def test_grant_assigns_from_region(self):
        mm = MemoryManager(MemoryRegion(500, 4))
        phys = mm.request(logical=777)
        assert 500 <= phys < 504
        assert mm.lookup(777) == phys
        assert 777 in mm.mapped_logicals()

    def test_repeat_request_returns_same_mapping(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        assert mm.request(1) == mm.request(1)

    def test_denies_when_full(self):
        mm = MemoryManager(MemoryRegion(0, 2))
        mm.request(1)
        mm.request(2)
        assert mm.request(3) is None
        assert mm.stats["denied"] == 1

    def test_eviction_frees_the_register_under_a_new_generation(self):
        mm = MemoryManager(MemoryRegion(0, 1))
        phys = mm.request(1)
        assert mm.address_word(phys) == phys
        mm.finish_eviction(1, generation=1)
        assert mm.lookup(1) is None
        # Free again at once; its grants now carry the new generation.
        assert mm.request(2) == phys
        assert mm.address_word(phys) == phys | 1 << ADDR_BITS

    def test_window_reports_evictions_for_hot_pending(self):
        mm = MemoryManager(MemoryRegion(0, 1))
        mm.request(1)
        mm.note_use(1, 1)
        mm.request(2)   # denied, becomes pending-hot
        mm.note_use(2, 100)
        victims = mm.end_window()
        assert victims and victims[0][0] == 1

    def test_hash_policy_uses_fixed_slots(self):
        mm = MemoryManager(MemoryRegion(0, 8), policy=HashAddressPolicy())
        phys = mm.request(10)
        assert phys == 10 % 8
        # A colliding logical address is denied permanently.
        assert mm.request(18) is None

    def test_mapped_count_and_capacity(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        assert mm.capacity == 4
        mm.request(1)
        assert len(mm.mapped_logicals()) == 1

    def test_mapped_logicals_is_a_live_view(self):
        mm = MemoryManager(MemoryRegion(0, 4))
        view = mm.mapped_logicals()
        assert len(view) == 0
        mm.request(7)
        mm.request(9)
        assert set(view) == {7, 9} and 7 in view
        mm.finish_eviction(7, 1)
        assert set(view) == {9} and 7 not in view
        assert mm.mapped_logicals() is view


# ---------------------------------------------------------------------------
# Admission differential: live view vs the per-call set copy it replaced
# ---------------------------------------------------------------------------
class _CopyingManager(MemoryManager):
    """Reference: ``request``/``end_window`` as they were before the live
    view — every policy call gets a fresh ``set`` copy of the mapping."""

    def request(self, logical):
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
        mapped = set(self._logical_to_phys)
        phys = self._pop_free() \
            if self.policy.wants(logical, mapped, self.capacity) else None
        if phys is None:
            self._pending_hot.add(logical)
            self.stats["denied"] += 1
            return None
        self._grant(logical, phys)
        return phys

    def end_window(self):
        self.policy.window_update(self._window_counts)
        self._window_counts = {}
        victims = self.policy.evictions(set(self._logical_to_phys),
                                        self.capacity, self._pending_hot)
        self._pending_hot = set()
        return [(logical, self._logical_to_phys[logical])
                for logical in victims if logical in self._logical_to_phys]


def _drive(manager_cls, policy_name, seed, capacity=24, steps=1500):
    """One seeded schedule of request / note_use / end_window /
    finish_eviction; returns the decision log."""
    rng = random.Random(seed)
    mm = manager_cls(MemoryRegion(100, capacity),
                     policy=make_policy(policy_name))
    universe = [rng.getrandbits(32) for _ in range(capacity * 4)]
    # Zipf-ish popularity so a hot set exists and drifts: the hot head
    # rotates through the universe as the schedule advances.
    weights = [1.0 / (rank + 1) for rank in range(len(universe))]
    log = []
    for step in range(steps):
        shift = step // 300 * capacity
        roll = rng.random()
        if roll < 0.70:
            pick = rng.choices(range(len(universe)), weights)[0]
            logical = universe[(pick + shift) % len(universe)]
            log.append(("request", logical, mm.request(logical)))
        elif roll < 0.95:
            pick = rng.choices(range(len(universe)), weights)[0]
            mm.note_use(universe[(pick + shift) % len(universe)],
                        rng.randint(1, 5))
        else:
            victims = mm.end_window()
            log.append(("victims", tuple(victims)))
            for logical, _phys in victims:
                mm.finish_eviction(logical, 1)
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
    mm.request(1)
    mm.request(2)
    assert mm.request(3) is None      # full: denied
    assert mm.request(4) is None
    # No per-miss copy: both denials saw one object, the live view.
    assert spy.seen[-1] is spy.seen[-2]
    assert spy.seen[-1] is mm.mapped_logicals()
    assert set(spy.seen[-1]) == {1, 2}
