"""Tests for the software INC map (the fallback executor)."""

import pytest
from hypothesis import given, strategies as st

from repro.inc import SoftwareINCMap
from repro.protocol import StreamOp


class TestMapPrimitives:
    def test_add_to_accumulates(self):
        m = SoftwareINCMap()
        assert m.add_to("k", 5) == 5
        assert m.add_to("k", 3) == 8
        assert m.get("k") == 8

    def test_get_of_absent_key_is_zero(self):
        assert SoftwareINCMap().get("missing") == 0

    def test_clear_returns_old_value(self):
        m = SoftwareINCMap()
        m.add_to("k", 9)
        assert m.clear("k") == 9
        assert m.get("k") == 0

    def test_no_32_bit_saturation(self):
        """The software path is the exact 64-bit fallback (§5.2.1)."""
        m = SoftwareINCMap()
        m.add_to("k", 2**31 - 1)
        assert m.add_to("k", 10) == 2**31 + 9

    def test_modify_applies_stream_op(self):
        m = SoftwareINCMap()
        assert m.modify(StreamOp.ADD, [1, 2, 3], 10) == [11, 12, 13]

    def test_merge_register(self):
        m = SoftwareINCMap()
        m.add_to("k", 5)
        m.merge_register("k", 100)
        assert m.get("k") == 105


class TestCountForward:
    def test_threshold_zero_always_forwards(self):
        m = SoftwareINCMap()
        assert m.count_forward("k", 0)
        assert m.count_forward("k", 0)

    def test_reaches_threshold_exactly_once_per_round(self):
        m = SoftwareINCMap()
        assert not m.count_forward("k", 3)
        assert not m.count_forward("k", 3)
        assert m.count_forward("k", 3)

    def test_multi_party_counter_rearms(self):
        m = SoftwareINCMap()
        for _ in range(2):
            m.count_forward("k", 3)
        assert m.count_forward("k", 3)
        # re-armed: the next hit needs three more counts
        assert not m.count_forward("k", 3)
        assert not m.count_forward("k", 3)
        assert m.count_forward("k", 3)

    def test_test_and_set_persists(self):
        m = SoftwareINCMap()
        assert m.count_forward("k", 1)
        assert not m.count_forward("k", 1)  # still held
        assert not m.count_forward("k", 1)

    def test_clear_counter_releases(self):
        m = SoftwareINCMap()
        m.count_forward("k", 1)
        m.clear_counter("k")
        assert m.count_forward("k", 1)  # reacquired


class TestBulkOperations:
    def test_drain_empties_map(self):
        m = SoftwareINCMap()
        m.add_to("a", 1)
        m.add_to("b", 2)
        assert m.drain() == {"a": 1, "b": 2}
        assert m.snapshot() == {}

    def test_snapshot_is_a_copy(self):
        m = SoftwareINCMap()
        m.add_to("a", 1)
        snap = m.snapshot()
        m.add_to("a", 1)
        assert snap == {"a": 1}

    def test_contains(self):
        m = SoftwareINCMap()
        m.add_to("a", 1)
        assert "a" in m.snapshot() and "b" not in m.snapshot()


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=-10**6, max_value=10**6)),
                max_size=60))
def test_property_totals_match_reference(operations):
    m = SoftwareINCMap()
    reference = {}
    for key, value in operations:
        m.add_to(key, value)
        reference[key] = reference.get(key, 0) + value
    for key, total in reference.items():
        assert m.get(key) == total
