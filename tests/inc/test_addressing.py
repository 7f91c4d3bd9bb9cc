"""Tests for key -> 32-bit logical addressing and collision handling."""

import pytest
from hypothesis import given, strategies as st

from repro.inc import LogicalSpace, logical_address


class TestLogicalAddress:
    def test_deterministic(self):
        assert logical_address("hello") == logical_address("hello")
        assert logical_address(42) == logical_address(42)

    def test_32_bit_range(self):
        for key in ["a", "b" * 100, 0, 2**60, b"bytes"]:
            assert 0 <= logical_address(key) < 2**32

    def test_int_and_str_supported(self):
        assert isinstance(logical_address(5), int)
        assert isinstance(logical_address("five"), int)
        assert isinstance(logical_address(b"five"), int)

    def test_bool_treated_as_int(self):
        assert logical_address(True) == logical_address(1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            logical_address(3.14)

    def test_sequential_ints_spread(self):
        """Dense integer key ranges must not cluster (Fibonacci hashing)."""
        addrs = [logical_address(i) % 1024 for i in range(1000)]
        assert len(set(addrs)) > 600

    @given(st.text(min_size=1, max_size=30))
    def test_stable_for_any_string(self, key):
        assert logical_address(key) == logical_address(key)


class TestLogicalSpace:
    # Integer keys hash by a multiplication modulo 2**32, so ``k`` and
    # ``k + 2**32`` share a logical address: a real collision.
    def test_first_resolution_owns_address(self):
        space = LogicalSpace()
        assert space.resolve("k") == logical_address("k")
        addr = space.resolve(7)
        assert addr == logical_address(7) == logical_address(7 + 2**32)
        assert space.resolve(7 + 2**32) is None
        assert space.resolve(7) == addr

    def test_same_key_resolves_consistently(self):
        space = LogicalSpace()
        assert space.resolve("k") == space.resolve("k")

    def test_collision_diverts_second_key(self):
        space = LogicalSpace()
        winner = space.resolve(7)
        assert space.resolve(7 + 2**32) is None
        assert space.resolve(7 + 2**33) is None
        assert space.resolve(8) not in (None, winner)

    def test_collision_is_permanent(self):
        space = LogicalSpace()
        space.resolve(7)
        assert space.resolve(7 + 2**32) is None
        assert space.resolve(7 + 2**32) is None

    def test_assigned_count(self):
        space = LogicalSpace()
        first = space.resolve("a")
        second = space.resolve("b")
        assert space.resolve("a") == first
        assert None not in (first, second) and first != second
