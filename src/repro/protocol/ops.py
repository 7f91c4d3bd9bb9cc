"""``Stream.modify`` arithmetic operations (paper Appendix A, Table 8).

These run on the packet's value stream at line rate without touching
the INC map.  All operations are 32-bit: arithmetic saturates, bitwise
operations wrap, shifts behave like the switch ALU (logical shift on
the 32-bit pattern).
"""

from __future__ import annotations

import enum
from typing import Tuple

from .arith import UINT32_MASK, saturating_add, wrap32

__all__ = ["StreamOp", "apply_stream_op"]


class StreamOp(enum.Enum):
    """The operation selector carried in the packet's OpType field."""

    NOP = "nop"
    MAX = "max"
    MIN = "min"
    ADD = "add"
    ASSIGN = "assign"
    SHIFTL = "shiftl"
    SHIFTR = "shiftr"
    BAND = "band"
    BOR = "bor"
    BNOT = "bnot"
    BXOR = "bxor"


def apply_stream_op(op: StreamOp, value: int, para: int) -> Tuple[int, bool]:
    """Apply ``op`` to one stream value; returns ``(result, overflowed)``.

    ``para`` is the static operand from the NetFilter (Table 2:
    ``stream.value = op(stream.value, para)``).
    """
    if op is StreamOp.NOP:
        return value, False
    if op is StreamOp.MAX:
        return max(value, para), False
    if op is StreamOp.MIN:
        return min(value, para), False
    if op is StreamOp.ADD:
        return saturating_add(value, para)
    if op is StreamOp.ASSIGN:
        return para, False
    if op is StreamOp.SHIFTL:
        return wrap32((value & UINT32_MASK) << (para & 31)), False
    if op is StreamOp.SHIFTR:
        return wrap32((value & UINT32_MASK) >> (para & 31)), False
    if op is StreamOp.BAND:
        return wrap32(value & para), False
    if op is StreamOp.BOR:
        return wrap32(value | para), False
    if op is StreamOp.BNOT:
        return wrap32(~value), False
    if op is StreamOp.BXOR:
        return wrap32(value ^ para), False
    raise AssertionError(f"unhandled op {op}")  # pragma: no cover
