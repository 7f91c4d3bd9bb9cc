"""Tests for switch register memory and the sticky-overflow sidecar."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol import INT32_MAX, INT32_MIN
from repro.switchsim import RegisterFile


@pytest.fixture
def regs():
    return RegisterFile(segments=32, registers_per_segment=100)


class TestStageLayout:
    def test_default_layout_fits(self):
        assert RegisterFile(registers_per_segment=1).segments == 32

    def test_oversized_configuration_rejected(self):
        with pytest.raises(ValueError, match="do not fit in 8 stages x 4"):
            RegisterFile(segments=33, registers_per_segment=1)


class TestBasicAccess:
    def test_fresh_registers_read_zero(self, regs):
        assert regs.read(0) == 0
        assert regs.read(regs.capacity - 1) == 0

    def test_add_then_read(self, regs):
        assert not regs.add(5, 42)
        assert regs.read(5) == 42

    def test_add_accumulates(self, regs):
        regs.add(5, 10)
        regs.add(5, 32)
        assert regs.read(5) == 42

    def test_clear_resets(self, regs):
        regs.add(5, 42)
        regs.clear(5)
        assert regs.read(5) == 0

    def test_write_sets_value(self, regs):
        regs.write(7, 99)
        assert regs.read(7) == 99
        regs.write(7, 0)
        assert regs.read(7) == 0

    def test_out_of_range_address_rejected(self, regs):
        with pytest.raises(IndexError):
            regs.read(regs.capacity)
        with pytest.raises(IndexError):
            regs.add(-1, 1)

    def test_occupied_counts_nonzero(self, regs):
        regs.add(1, 5)
        regs.add(2, 5)
        regs.add(2, -5)  # back to zero
        assert len(regs.occupied_addrs()) == 1


class TestStickyOverflow:
    def test_overflow_leaves_value_intact_and_sets_sticky(self, regs):
        regs.add(0, INT32_MAX - 10)
        assert regs.add(0, 100)  # overflows
        assert regs.is_sticky(0)
        assert regs.read_raw(0) == INT32_MAX - 10  # pre-overflow preserved

    def test_sticky_register_reads_sentinel(self, regs):
        regs.add(0, INT32_MAX - 10)
        regs.add(0, 100)
        assert regs.read(0) == INT32_MAX

    def test_adds_to_sticky_register_are_refused(self, regs):
        regs.add(0, INT32_MAX - 10)
        regs.add(0, 100)
        assert regs.add(0, 1)  # reported as overflow
        assert regs.read_raw(0) == INT32_MAX - 10

    def test_negative_overflow_also_sticks(self, regs):
        regs.add(3, INT32_MIN + 5)
        assert regs.add(3, -10)
        assert regs.is_sticky(3)

    def test_clear_resets_sticky(self, regs):
        regs.add(0, INT32_MAX)
        regs.add(0, 1)
        regs.clear(0)
        assert not regs.is_sticky(0)
        assert regs.read(0) == 0

    def test_read_and_clear_reports_exact_values(self, regs):
        regs.add(0, INT32_MAX - 1)
        regs.add(0, 100)  # sticky now
        regs.add(1, 7)
        result = regs.read_and_clear([0, 1])
        assert result == [(0, INT32_MAX - 1, True), (1, 7, False)]
        assert regs.read(0) == 0 and not regs.is_sticky(0)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=99),
                              st.integers(min_value=-1000, max_value=1000)),
                    max_size=50))
    def test_non_overflowing_adds_match_plain_sums(self, operations):
        regs = RegisterFile(segments=4, registers_per_segment=25)
        expected = {}
        for addr, value in operations:
            overflowed = regs.add(addr, value)
            assert not overflowed
            expected[addr] = expected.get(addr, 0) + value
        for addr, total in expected.items():
            assert regs.read(addr) == total

    @given(st.integers(min_value=0, max_value=99))
    def test_clear_is_idempotent(self, addr):
        regs = RegisterFile(segments=4, registers_per_segment=25)
        regs.add(addr, 5)
        regs.clear(addr)
        regs.clear(addr)
        assert regs.read(addr) == 0
