"""32-bit switch arithmetic and floating-point quantization (paper §5.2.1).

Programmable switch ALUs operate on 32-bit integers only.  NetRPC maps
floats to fixed point by multiplying with ``10**precision`` on the client
agent and dividing on the way back.  When an addition overflows the
32-bit range the switch clamps the result to ``INT32_MAX``/``INT32_MIN``
and sets the packet's overflow flag; the host agents treat any clamped
value as a suspected overflow and re-execute in software (§5.2.1,
including the documented MAX_INT false-positive).
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, index, mul, truediv
from typing import Callable, Collection, Iterable, List, Tuple

__all__ = [
    "INT32_MAX",
    "INT32_MIN",
    "UINT32_MASK",
    "saturating_add",
    "wrap32",
    "is_overflow_sentinel",
    "encode_each",
    "Quantizer",
]

INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)
UINT32_MASK = 2**32 - 1


def wrap32(value: int) -> int:
    """Two's-complement wrap of an arbitrary int into int32 range."""
    value &= UINT32_MASK
    return value - 2**32 if value > INT32_MAX else value


def saturating_add(a: int, b: int) -> Tuple[int, bool]:
    """Add two int32s the way the switch ALU does.

    Returns ``(result, overflowed)``; on overflow the result saturates to
    the nearest representable bound.
    """
    total = a + b
    if total > INT32_MAX:
        return INT32_MAX, True
    if total < INT32_MIN:
        return INT32_MIN, True
    return total, False


def is_overflow_sentinel(value: int) -> bool:
    """Whether a value *looks* overflowed to a host agent.

    Agents cannot distinguish a saturated result from a legitimate
    MAX_INT/MIN_INT; the paper accepts the false positive (an extra
    retry, never an incorrect result).
    """
    return value == INT32_MAX or value == INT32_MIN


def encode_each(encode: Callable[[float], Tuple[int, bool]],
                values: Iterable[float]) -> Tuple[List[int], int]:
    """``(column, overflow count)`` from one ``encode`` call per value:
    the reference every codec's ``encode_many`` must agree with."""
    column: List[int] = []
    overflows = 0
    for value in values:
        fixed, over = encode(value)
        overflows += over
        column.append(fixed)
    return column, overflows


class Quantizer:
    """Fixed-point codec for one application's ``Precision`` setting.

    ``precision`` is the number of decimal digits preserved after the
    point (the NetFilter ``Precision`` field).  ``precision=0`` means the
    application's values are already integers.

    Like every value codec it states its op's arithmetic once (DESIGN.md
    §4.8): ``add_bits`` combines a word into a 32-bit register and
    reports overflow, ``exact_add`` accumulates a word into the software
    executor's exact total and ``exact_word`` reads a total back as a
    wire word.  Here that is the saturating int32 add, a 64-bit integer
    sum, and the total itself.
    """

    add_bits = staticmethod(saturating_add)
    exact_add = staticmethod(add)
    exact_word = staticmethod(index)

    def __init__(self, precision: int = 0):
        if precision < 0:
            raise ValueError(f"precision must be >= 0, got {precision}")
        if precision > 9:
            raise ValueError(
                f"precision {precision} leaves no integer range in int32")
        self.precision = precision
        self.scale = 10 ** precision

    def encode(self, value: float) -> Tuple[int, bool]:
        """Quantize to fixed point.

        Returns ``(fixed, overflowed)``.  A value too large for int32
        saturates and reports overflow so the agent can route it through
        the software path up front; ±inf — and a finite value whose
        scaled product overflows to inf — saturates the same way rather
        than leaking ``round()``'s OverflowError.  NaN is rejected — it
        has no fixed-point image and silently aggregating one would
        poison the result.
        """
        scaled = value * self.scale
        if not math.isfinite(scaled):
            if math.isnan(scaled):
                raise ValueError("cannot quantize NaN to fixed point")
            return (INT32_MAX if scaled > 0 else INT32_MIN), True
        fixed = round(scaled)
        if fixed > INT32_MAX:
            return INT32_MAX, True
        if fixed < INT32_MIN:
            return INT32_MIN, True
        return int(fixed), False

    def decode(self, fixed: int) -> float:
        """Map a fixed-point value back to float."""
        if self.scale == 1:
            return float(fixed)
        return fixed / self.scale

    def encode_many(self, values: Collection[float]
                    ) -> Tuple[List[int], int]:
        """Quantize a whole tensor: ``(int32 column, overflow count)``.

        Element for element the result of :meth:`encode`.  The common
        tensor — finite floats inside the int32 range — is scaled and
        rounded without entering Python per value, then range-checked
        with one ``min``/``max``; anything else (NaN, ±inf, a saturating
        value, an element ``float.__round__`` does not take) re-runs the
        per-element loop, so every check :meth:`encode` makes still
        decides the outcome.
        """
        try:
            column = list(map(float.__round__,
                              map(mul, values, repeat(float(self.scale)))))
            if not column or (min(column) >= INT32_MIN
                              and max(column) <= INT32_MAX):
                return column, 0
        except (TypeError, ValueError, OverflowError):
            pass                # NaN, ±inf or a non-float product
        return encode_each(self.encode, values)

    def decode_many(self, column: Iterable[int]) -> List[float]:
        """Map a fixed-point column back to floats (see :meth:`decode`)."""
        if self.scale == 1:
            return list(map(float, column))
        return list(map(truediv, column, repeat(self.scale)))

    def roundtrip_error_bound(self) -> float:
        """Worst-case absolute quantization error for one value."""
        return 0.5 / self.scale

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Quantizer(precision={self.precision})"
