"""Tests for Stream.modify operations (paper Appendix A, Table 8)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import NetFilterError, parse_netfilter
from repro.protocol import (
    INT32_MAX,
    INT32_MIN,
    StreamOp,
    apply_stream_op,
)

int32s = st.integers(min_value=INT32_MIN, max_value=INT32_MAX)


def _modify_op(spelling):
    return parse_netfilter({"AppName": "A", "modify": spelling}).modify_op


class TestParsing:
    """The NetFilter spelling of an op (``parse_netfilter``)."""

    def test_parse_known_ops(self):
        assert _modify_op("ADD") is StreamOp.ADD
        assert _modify_op("nop") is StreamOp.NOP
        assert _modify_op(" Max ") is StreamOp.MAX
        assert _modify_op({"op": "Max", "para": 3}) is StreamOp.MAX

    def test_parse_unknown_op_raises(self):
        with pytest.raises(NetFilterError,
                           match="^modify: unknown Stream.modify op"):
            _modify_op("mul")
        with pytest.raises(NetFilterError,
                           match="^modify.op: unknown Stream.modify op"):
            _modify_op({"op": "mul"})


class TestSemantics:
    """Each case mirrors a row of Table 8."""

    def test_nop_passthrough(self):
        assert apply_stream_op(StreamOp.NOP, 42, 7) == (42, False)

    def test_max(self):
        assert apply_stream_op(StreamOp.MAX, 3, 7) == (7, False)
        assert apply_stream_op(StreamOp.MAX, 9, 7) == (9, False)

    def test_min(self):
        assert apply_stream_op(StreamOp.MIN, 3, 7) == (3, False)
        assert apply_stream_op(StreamOp.MIN, 9, 7) == (7, False)

    def test_add(self):
        assert apply_stream_op(StreamOp.ADD, 3, 7) == (10, False)

    def test_add_overflow_saturates(self):
        result, overflowed = apply_stream_op(StreamOp.ADD, INT32_MAX, 1)
        assert result == INT32_MAX and overflowed

    def test_assign(self):
        assert apply_stream_op(StreamOp.ASSIGN, 999, 7) == (7, False)

    def test_shiftl(self):
        assert apply_stream_op(StreamOp.SHIFTL, 1, 4) == (16, False)

    def test_shiftl_wraps_like_hardware(self):
        result, overflowed = apply_stream_op(StreamOp.SHIFTL, 1, 31)
        assert result == INT32_MIN and not overflowed

    def test_shiftr_is_logical(self):
        # -1 has all 32 bits set; a logical shift right by 1 gives
        # 0x7FFFFFFF, exactly what the switch ALU produces.
        assert apply_stream_op(StreamOp.SHIFTR, -1, 1) == (INT32_MAX, False)

    def test_shift_amount_masked_to_31(self):
        assert apply_stream_op(StreamOp.SHIFTL, 1, 32) == (1, False)

    def test_band(self):
        assert apply_stream_op(StreamOp.BAND, 0b1100, 0b1010) == (0b1000,
                                                                  False)

    def test_bor(self):
        assert apply_stream_op(StreamOp.BOR, 0b1100, 0b1010) == (0b1110,
                                                                 False)

    def test_bnot(self):
        assert apply_stream_op(StreamOp.BNOT, 0, 0) == (-1, False)

    def test_bxor(self):
        assert apply_stream_op(StreamOp.BXOR, 0b1100, 0b1010) == (0b0110,
                                                                  False)

    @given(st.sampled_from(list(StreamOp)), int32s, int32s)
    def test_results_always_int32(self, op, value, para):
        result, _ = apply_stream_op(op, value, para)
        assert INT32_MIN <= result <= INT32_MAX

    @given(int32s, int32s)
    def test_bxor_is_involution(self, value, para):
        once, _ = apply_stream_op(StreamOp.BXOR, value, para)
        twice, _ = apply_stream_op(StreamOp.BXOR, once, para)
        assert twice == value

    @given(int32s)
    def test_bnot_is_involution(self, value):
        once, _ = apply_stream_op(StreamOp.BNOT, value, 0)
        twice, _ = apply_stream_op(StreamOp.BNOT, once, 0)
        assert twice == value

    @given(st.sampled_from([StreamOp.MAX, StreamOp.MIN]), int32s, int32s)
    def test_max_min_idempotent(self, op, value, para):
        once, _ = apply_stream_op(op, value, para)
        twice, _ = apply_stream_op(op, once, para)
        assert twice == once
