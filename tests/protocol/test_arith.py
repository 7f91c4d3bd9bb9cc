"""Tests for 32-bit switch arithmetic and quantization (paper §5.2.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol import (
    INT32_MAX,
    INT32_MIN,
    Quantizer,
    is_overflow_sentinel,
    saturating_add,
    wrap32,
)

int32s = st.integers(min_value=INT32_MIN, max_value=INT32_MAX)


class TestSaturatingAdd:
    def test_normal_addition(self):
        assert saturating_add(3, 4) == (7, False)

    def test_negative_addition(self):
        assert saturating_add(-3, -4) == (-7, False)

    def test_positive_overflow_saturates(self):
        result, overflowed = saturating_add(INT32_MAX, 1)
        assert result == INT32_MAX and overflowed

    def test_negative_overflow_saturates(self):
        result, overflowed = saturating_add(INT32_MIN, -1)
        assert result == INT32_MIN and overflowed

    def test_exact_bounds_do_not_overflow(self):
        assert saturating_add(INT32_MAX - 1, 1) == (INT32_MAX, False)
        assert saturating_add(INT32_MIN + 1, -1) == (INT32_MIN, False)

    def test_extreme_operand_pairs_saturate(self):
        assert saturating_add(INT32_MIN, INT32_MIN) == (INT32_MIN, True)
        assert saturating_add(INT32_MAX, INT32_MAX) == (INT32_MAX, True)
        assert saturating_add(INT32_MIN, INT32_MAX) == (-1, False)

    @given(int32s, int32s)
    def test_result_always_in_range(self, a, b):
        result, _ = saturating_add(a, b)
        assert INT32_MIN <= result <= INT32_MAX

    @given(int32s, int32s)
    def test_overflow_flag_matches_true_sum(self, a, b):
        result, overflowed = saturating_add(a, b)
        assert overflowed == (not INT32_MIN <= a + b <= INT32_MAX)
        if not overflowed:
            assert result == a + b


class TestWrap32:
    def test_identity_in_range(self):
        assert wrap32(12345) == 12345
        assert wrap32(-12345) == -12345

    def test_wraps_past_max(self):
        assert wrap32(INT32_MAX + 1) == INT32_MIN

    def test_wraps_past_min(self):
        assert wrap32(INT32_MIN - 1) == INT32_MAX

    @given(st.integers(min_value=-2**40, max_value=2**40))
    def test_always_in_range(self, value):
        assert INT32_MIN <= wrap32(value) <= INT32_MAX

    @given(int32s)
    def test_congruent_mod_2_32(self, value):
        assert (wrap32(value + 2**32)) == value


class TestOverflowSentinel:
    def test_max_and_min_are_sentinels(self):
        assert is_overflow_sentinel(INT32_MAX)
        assert is_overflow_sentinel(INT32_MIN)

    def test_ordinary_values_are_not(self):
        assert not is_overflow_sentinel(0)
        assert not is_overflow_sentinel(INT32_MAX - 1)


class TestQuantizer:
    def test_precision_zero_is_passthrough_rounding(self):
        q = Quantizer(0)
        assert q.encode(5.0) == (5, False)
        assert q.decode(5) == 5.0

    def test_fixed_point_roundtrip(self):
        q = Quantizer(4)
        fixed, overflowed = q.encode(3.14159)
        assert not overflowed
        assert q.decode(fixed) == pytest.approx(3.1416, abs=1e-9)

    def test_precision_bounds_error(self):
        q = Quantizer(3)
        value = 0.123456
        assert abs(q.decode(q.encode(value)[0]) - value) <= \
            q.roundtrip_error_bound()

    def test_too_large_value_overflows(self):
        q = Quantizer(8)
        fixed, overflowed = q.encode(1e6)
        assert overflowed and fixed == INT32_MAX

    def test_too_negative_value_overflows(self):
        q = Quantizer(8)
        fixed, overflowed = q.encode(-1e6)
        assert overflowed and fixed == INT32_MIN

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            Quantizer(-1)
        with pytest.raises(ValueError):
            Quantizer(10)

    def test_infinities_saturate_like_overflow(self):
        # Audit fix: inf formerly leaked an OverflowError out of round().
        for precision in (0, 4, 8):
            q = Quantizer(precision)
            assert q.encode(float("inf")) == (INT32_MAX, True)
            assert q.encode(float("-inf")) == (INT32_MIN, True)

    def test_finite_value_scaling_to_infinity_saturates(self):
        # 1e305 is finite but 1e305 * 10**6 is not: same leak, one
        # multiplication later (found by tests/core/test_iedt.py).
        q = Quantizer(6)
        assert q.encode(1e305) == (INT32_MAX, True)
        assert q.encode(-1e305) == (INT32_MIN, True)

    def test_nan_is_rejected_explicitly(self):
        q = Quantizer(4)
        with pytest.raises(ValueError, match="NaN"):
            q.encode(float("nan"))

    def test_values_at_exact_fixed_point_bounds(self):
        q = Quantizer(0)
        assert q.encode(float(INT32_MAX)) == (INT32_MAX, False)
        assert q.encode(float(INT32_MIN)) == (INT32_MIN, False)

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
           st.integers(min_value=0, max_value=5))
    def test_roundtrip_error_within_bound(self, value, precision):
        q = Quantizer(precision)
        fixed, overflowed = q.encode(value)
        assert not overflowed
        assert abs(q.decode(fixed) - value) <= q.roundtrip_error_bound() + 1e-12

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=1, max_size=20))
    def test_sum_of_quantized_matches_quantized_sum(self, values):
        # The property gradient aggregation relies on: aggregating in fixed
        # point then decoding equals the true sum up to n * eps.
        q = Quantizer(6)
        total_fixed = sum(q.encode(v)[0] for v in values)
        true_sum = sum(values)
        assert abs(q.decode(total_fixed) - true_sum) <= \
            len(values) * q.roundtrip_error_bound() + 1e-9
