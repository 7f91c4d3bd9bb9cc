"""Tests for the cache replacement policies (paper §5.2.2, Figure 12)."""

import pytest

from repro.inc import (
    FCFSPolicy,
    HashAddressPolicy,
    MemoryManager,
    MemoryRegion,
    PeriodicLRUPolicy,
    PowerOfNPolicy,
    make_policy,
)


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_policy("netrpc"), PeriodicLRUPolicy)
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("pon"), PowerOfNPolicy)
        assert isinstance(make_policy("HASH"), HashAddressPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_policy("lru-k")


class TestFCFS:
    def test_admits_until_full(self):
        policy = FCFSPolicy()
        assert policy.wants(1, set(), capacity=2)
        assert policy.wants(2, {10}, capacity=2)
        assert not policy.wants(3, {10, 11}, capacity=2)

    def test_never_evicts(self):
        policy = FCFSPolicy()
        policy.window_update({1: 100})
        assert policy.evictions({10, 11}, capacity=2, pending=[1]) == []


class TestPowerOfN:
    def test_requires_n_hits_before_admission(self):
        policy = PowerOfNPolicy(n=3)
        assert not policy.wants(1, set(), capacity=10)   # hit 1
        assert not policy.wants(1, set(), capacity=10)   # hit 2
        assert policy.wants(1, set(), capacity=10)       # hit 3

    def test_gives_up_when_full(self):
        policy = PowerOfNPolicy(n=1)
        assert not policy.wants(1, {10, 11}, capacity=2)

    def test_window_counts_feed_hits(self):
        policy = PowerOfNPolicy(n=5)
        policy.window_update({7: 4})
        assert policy.wants(7, set(), capacity=10)  # 4 + 1 = 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PowerOfNPolicy(n=0)


class TestHashAddress:
    def test_slot_is_modulo(self):
        assert HashAddressPolicy.slot_for(10, 8) == 2
        assert HashAddressPolicy.slot_for(8, 8) == 0

    def test_always_wants(self):
        # Admission is the hash slot's availability alone: the manager
        # grants every logical address whose slot is free, until full.
        mm = MemoryManager(MemoryRegion(0, 2), policy=HashAddressPolicy())
        assert mm.request(1) == 1
        assert mm.request(2) == 0
        assert mm.request(3) is None       # slot 1 is taken


class TestPeriodicLRU:
    def test_eager_admission_while_space(self):
        policy = PeriodicLRUPolicy()
        assert policy.wants(1, set(), capacity=2)
        assert not policy.wants(3, {10, 11}, capacity=2)

    def test_evicts_cold_for_hot(self):
        policy = PeriodicLRUPolicy()
        policy.window_update({10: 1, 11: 50, 99: 100})
        evictions = policy.evictions({10, 11}, capacity=2, pending=[99])
        assert evictions == [10]  # coldest mapped address goes

    def test_no_eviction_when_pending_is_colder(self):
        policy = PeriodicLRUPolicy()
        policy.window_update({10: 50, 11: 60, 99: 1})
        assert policy.evictions({10, 11}, capacity=2, pending=[99]) == []

    def test_no_eviction_when_space_left(self):
        policy = PeriodicLRUPolicy()
        policy.window_update({99: 100})
        assert policy.evictions({10}, capacity=2, pending=[99]) == []

    def test_history_window_limits_memory(self):
        policy = PeriodicLRUPolicy(history_windows=1)
        policy.window_update({10: 1000})
        policy.window_update({11: 5})    # window with 10 absent
        policy.window_update({99: 10})
        # Address 10's old popularity has aged out entirely.
        evictions = policy.evictions({10, 11}, capacity=2, pending=[99])
        assert 10 in evictions

    def test_multiple_pending_evict_multiple(self):
        policy = PeriodicLRUPolicy(max_evict_fraction=1.0)
        policy.window_update({1: 1, 2: 2, 50: 100, 51: 90})
        evictions = policy.evictions({1, 2}, capacity=2, pending=[50, 51])
        assert set(evictions) == {1, 2}

    def test_eviction_cap_limits_churn(self):
        policy = PeriodicLRUPolicy(max_evict_fraction=1 / 16)
        mapped = set(range(32))
        policy.window_update({**{a: 1 for a in mapped},
                              **{a: 100 for a in range(100, 132)}})
        evictions = policy.evictions(mapped, capacity=32,
                                     pending=list(range(100, 132)))
        assert len(evictions) == 2  # 32/16

    def test_invalid_evict_fraction(self):
        with pytest.raises(ValueError):
            PeriodicLRUPolicy(max_evict_fraction=0)

    def test_invalid_history(self):
        with pytest.raises(ValueError):
            PeriodicLRUPolicy(history_windows=0)
