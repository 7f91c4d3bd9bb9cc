"""Tests for the software INC map (the fallback executor)."""

import pytest
from hypothesis import given, strategies as st

from repro.inc import SoftwareINCMap
from repro.protocol import (DEFAULT_FMAX_CODEC, DEFAULT_FP_CODEC, CntFwdSpec,
                            ForwardTarget, KVBlock, Quantizer, RIPProgram,
                            StreamOp, apply)

INTEGER = Quantizer()


class TestMapPrimitives:
    def test_add_to_accumulates(self):
        m = SoftwareINCMap(INTEGER)
        assert m.add_to("k", 5) == 5
        assert m.add_to("k", 3) == 8
        assert m.get("k") == 8

    def test_get_of_absent_key_is_zero(self):
        assert SoftwareINCMap(INTEGER).get("missing") == 0

    def test_clear_returns_old_value(self):
        m = SoftwareINCMap(INTEGER)
        m.add_to("k", 9)
        assert m.clear("k") == 9
        assert m.get("k") == 0

    def test_no_32_bit_saturation(self):
        """The software path is the exact 64-bit fallback (§5.2.1)."""
        m = SoftwareINCMap(INTEGER)
        m.add_to("k", 2**31 - 1)
        assert m.add_to("k", 10) == 2**31 + 9

    def test_modify_applies_stream_op(self):
        m = SoftwareINCMap(INTEGER)
        program = RIPProgram(app_name="m", add_to_field="r.kvs",
                             modify_op=StreamOp.ADD, modify_para=10)
        block = KVBlock.from_columns([0] * 3, [1, 2, 3], keys=["a", "b", "c"])
        apply(program, m, block, 0b111)
        assert block.values_list() == [11, 12, 13]
        assert m.snapshot() == {"a": 11, "b": 12, "c": 13}

    def test_a_register_folds_in_with_the_maps_arithmetic(self):
        """An evicted register folds in with the map's own arithmetic, and
        a live one only through ``get_with``."""
        m = SoftwareINCMap(INTEGER)
        m.add_to("k", 5)
        assert m.get_with("k", 100) == 105 and m.get("k") == 5
        m.add_to("k", 100)
        assert m.get("k") == 105
        fp = SoftwareINCMap(DEFAULT_FP_CODEC)
        fp.add_to("k", DEFAULT_FP_CODEC.encode(1.5)[0])
        fp.add_to("k", DEFAULT_FP_CODEC.encode(2.25)[0])
        assert fp.snapshot() == {"k": 3.75}
        assert fp.get("k") == DEFAULT_FP_CODEC.encode(3.75)[0]


class TestFloatArithmetic:
    def test_fp_add_sums_decoded_words_in_float64(self):
        codec = DEFAULT_FP_CODEC
        m = SoftwareINCMap(codec)
        for value in (0.1, 0.2, -0.05):
            m.add_to("k", codec.encode(value)[0])
        exact = sum(codec.decode(codec.encode(v)[0])
                    for v in (0.1, 0.2, -0.05))
        assert m.snapshot()["k"] == exact
        assert m.get("k") == codec.encode(exact)[0]
        assert m.get("absent") == 0          # a cleared register

    def test_fp_max_keeps_the_largest_word_even_below_zero(self):
        codec = DEFAULT_FMAX_CODEC
        m = SoftwareINCMap(codec)
        for value in (-7.0, -3.0, -5.0):
            m.add_to("k", codec.encode(value)[0])
        assert codec.decode(m.get("k")) == -3.0
        # A cleared register (0) is the max identity: it changes nothing.
        assert m.get_with("k", 0) == m.get("k")
        assert m.get("absent") == 0
        assert m.clear("k") == codec.encode(-3.0)[0]


def _count(m, threshold, key="k"):
    """One packet for ``key`` through ``apply``'s CntFwd on the map:
    whether it fired (a non-None target) rather than being absorbed."""
    program = RIPProgram(app_name="c", cntfwd=CntFwdSpec(
        target=ForwardTarget.SRC, threshold=threshold))
    block = KVBlock.from_columns([0], [0], keys=[key])
    counter = key if threshold else None
    return apply(program, m, block, 1, 0, counter)[0] is not None


class TestCountForward:
    """CntFwd runs through ``protocol.apply`` on the software map."""

    def test_threshold_zero_always_forwards(self):
        m = SoftwareINCMap(INTEGER)
        assert _count(m, 0)
        assert _count(m, 0)

    def test_reaches_threshold_exactly_once_per_round(self):
        m = SoftwareINCMap(INTEGER)
        assert not _count(m, 3)
        assert not _count(m, 3)
        assert _count(m, 3)

    def test_multi_party_counter_rearms(self):
        m = SoftwareINCMap(INTEGER)
        for _ in range(2):
            _count(m, 3)
        assert _count(m, 3)
        # re-armed: the next hit needs three more counts
        assert not _count(m, 3)
        assert not _count(m, 3)
        assert _count(m, 3)

    def test_test_and_set_persists(self):
        m = SoftwareINCMap(INTEGER)
        assert _count(m, 1)
        assert not _count(m, 1)  # still held
        assert not _count(m, 1)

    def test_clear_counter_releases(self):
        m = SoftwareINCMap(INTEGER)
        _count(m, 1)
        m.clear("k")             # a keyed counter is the key's own entry
        assert _count(m, 1)      # reacquired


class TestBulkOperations:
    def test_drain_empties_map(self):
        m = SoftwareINCMap(INTEGER)
        m.add_to("a", 1)
        m.add_to("b", 2)
        assert m.drain() == {"a": 1, "b": 2}
        assert m.snapshot() == {}

    def test_snapshot_is_a_copy(self):
        m = SoftwareINCMap(INTEGER)
        m.add_to("a", 1)
        snap = m.snapshot()
        m.add_to("a", 1)
        assert snap == {"a": 1}

    def test_contains(self):
        m = SoftwareINCMap(INTEGER)
        m.add_to("a", 1)
        assert "a" in m.snapshot() and "b" not in m.snapshot()


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=-10**6, max_value=10**6)),
                max_size=60))
def test_property_totals_match_reference(operations):
    m = SoftwareINCMap(INTEGER)
    reference = {}
    for key, value in operations:
        m.add_to(key, value)
        reference[key] = reference.get(key, 0) + value
    for key, total in reference.items():
        assert m.get(key) == total
