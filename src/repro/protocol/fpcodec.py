"""Table-based floating point for the switch dataplane (NetFC-style).

Programmable switch ALUs have no floating-point unit.  NetFC (PAPERS.md)
shows that fp arithmetic is still feasible: operands are split into
sign/exponent/mantissa fields and combined through match-action *lookup
tables* whose finite resolution truncates the mantissa.  This module is
the behavioural model of that design, sized to NetRPC's 32-bit register
width:

* a value is packed as ``sign(1) | exponent(8, biased) | mantissa(16)``
  into the low 25 bits of a register — ``INT32_MAX``, the sticky-
  overflow read sentinel, is therefore never a valid encoding;
* the wire/register representation is the *ordered* form: the packed
  magnitude, negated for negative values.  Zero encodes to integer 0
  (a cleared register reads as ``+0.0``), and integer comparison of two
  ordered encodings matches float comparison — which is what lets
  ``FMAX`` run as a plain integer max on the switch;
* ``add_bits`` models the exponent-alignment tables: the smaller
  operand's mantissa is right-shifted with *truncation* (the table-
  resolution error), the signed mantissas are added, and the result is
  renormalised with truncation.  Exponent overflow saturates to the
  largest finite encoding and reports overflow, feeding the same sticky
  sidecar / software-recovery machinery as integer saturation (§5.2.1).

Error model (documented so tests can assert it): encoding rounds the
mantissa (relative error ≤ 2^-(mantissa_bits+1)); each table add
truncates at most one ulp during alignment and one during
renormalisation, so

    |table_add(a, b) - (a + b)| <= 2^(1 - mantissa_bits)
                                   * max(|a|, |b|, |a + b|) + 2 * tiny

where ``tiny`` is the subnormal ulp (absolute truncation floor).  The
:meth:`FPCodec.sum_error_bound` helper integrates this over an n-term
accumulation; the Hypothesis differential suite
(tests/switchsim/test_fp_kernels.py) drives random tensors against an
IEEE float64 reference and asserts the bound.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable, List, Optional, Tuple

from .arith import encode_each

__all__ = ["FPCodec", "OrderedMaxCodec", "DEFAULT_FP_CODEC",
           "DEFAULT_FMAX_CODEC"]


class FPCodec:
    """Sign/exponent/mantissa codec plus the switch's table arithmetic.

    ``exponent_bits`` and ``mantissa_bits`` size the lookup tables; the
    defaults (8, 16) mirror NetFC's fp16-accuracy-in-32-bit layout and
    must fit the register: ``1 + exponent_bits + mantissa_bits <= 31``.
    """

    def __init__(self, exponent_bits: int = 8, mantissa_bits: int = 16):
        if exponent_bits < 2 or mantissa_bits < 2:
            raise ValueError("need at least 2 exponent and 2 mantissa bits")
        if 1 + exponent_bits + mantissa_bits > 31:
            raise ValueError(
                f"sign+{exponent_bits}+{mantissa_bits} bits do not fit a "
                f"32-bit register below the INT32_MAX sentinel")
        self.exponent_bits = exponent_bits
        self.mantissa_bits = mantissa_bits
        self.bias = (1 << (exponent_bits - 1)) - 1
        self.exp_max = (1 << exponent_bits) - 1       # largest finite field
        self._mant_mask = (1 << mantissa_bits) - 1
        self._implicit = 1 << mantissa_bits
        # Largest finite ordered magnitude: exp_max with all-ones mantissa.
        self.max_ordered = (self.exp_max << mantissa_bits) | self._mant_mask
        # Smallest positive (subnormal ulp): exponent field 0, mantissa 1.
        self.tiny = math.ldexp(1.0, 1 - self.bias - mantissa_bits)
        self.max_value = self.decode(self.max_ordered)

    # ------------------------------------------------------------------
    # wire codec (the interface the RPC layer's IEDT path expects)
    # ------------------------------------------------------------------
    def encode(self, value: float) -> Tuple[int, bool]:
        """Float -> (ordered encoding, overflowed).

        Values beyond the largest finite encoding saturate (sign
        preserved) and report overflow, exactly like the fixed-point
        :class:`~repro.protocol.arith.Quantizer`.  NaN is rejected —
        the switch tables have no NaN row and silently aggregating one
        would poison the result.
        """
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot encode NaN as switch floating point")
        negative = value < 0 or (value == 0 and math.copysign(1, value) < 0)
        mag = -value if negative else value
        if math.isinf(mag):
            bits = self.max_ordered
            return (-bits if negative else bits), True
        if mag == 0.0:
            return 0, False
        frac, exp2 = math.frexp(mag)           # mag = frac * 2**exp2
        e = exp2 - 1 + self.bias               # implicit-bit exponent field
        if e >= 1:
            sig = round(math.ldexp(frac, self.mantissa_bits + 1))
            if sig >= self._implicit << 1:     # rounding carried over
                sig >>= 1
                e += 1
            if e > self.exp_max:
                bits = self.max_ordered
                return (-bits if negative else bits), True
            bits = (e << self.mantissa_bits) | (sig - self._implicit)
        else:
            # Subnormal range: fixed ulp of 2**(1 - bias - mantissa_bits).
            sig = round(mag / self.tiny)
            if sig == 0:
                return 0, False
            if sig >= self._implicit:          # rounded up into normals
                bits = 1 << self.mantissa_bits
            else:
                bits = sig
        return (-bits if negative else bits), False

    def decode(self, ordered: int) -> float:
        """Ordered encoding -> float (exact; every encoding is a float)."""
        if ordered == 0:
            return 0.0
        negative = ordered < 0
        mag = -ordered if negative else ordered
        e = mag >> self.mantissa_bits
        m = mag & self._mant_mask
        if e == 0:
            value = m * self.tiny
        else:
            value = math.ldexp(m | self._implicit,
                               e - self.bias - self.mantissa_bits)
        return -value if negative else value

    def encode_many(self, values: Iterable[float]) -> Tuple[List[int], int]:
        """Whole-tensor :meth:`encode`: ``(column, overflow count)``."""
        return encode_each(self.encode, values)

    def decode_many(self, column: Iterable[int]) -> List[float]:
        """Whole-tensor :meth:`decode`."""
        return list(map(self.decode, column))

    # ------------------------------------------------------------------
    # table arithmetic (what the switch pipeline executes per register)
    # ------------------------------------------------------------------
    def add_bits(self, a: int, b: int) -> Tuple[int, bool]:
        """Table-based fp add over two ordered encodings.

        Returns ``(ordered result, overflowed)``.  Alignment and
        renormalisation truncate (the table-resolution error); exponent
        overflow saturates to the largest finite encoding.
        """
        if a == 0:
            return b, False
        if b == 0:
            return a, False
        sign_a, mag_a = (a < 0), abs(a)
        sign_b, mag_b = (b < 0), abs(b)
        mant_bits = self.mantissa_bits
        ea = mag_a >> mant_bits
        eb = mag_b >> mant_bits
        sa = mag_a & self._mant_mask
        sb = mag_b & self._mant_mask
        # Subnormals (field 0) share the exponent scale of field 1 and
        # carry no implicit bit.
        if ea == 0:
            ea = 1
        else:
            sa |= self._implicit
        if eb == 0:
            eb = 1
        else:
            sb |= self._implicit
        # Align to the larger exponent; the smaller mantissa loses its
        # shifted-out bits (the finite exponent-difference table).
        if ea >= eb:
            exp, sb = ea, sb >> (ea - eb)
        else:
            exp, sa = eb, sa >> (eb - ea)
        total = (-sa if sign_a else sa) + (-sb if sign_b else sb)
        if total == 0:
            return 0, False
        negative = total < 0
        sig = -total if negative else total
        # Renormalise: a carry shifts right with truncation; cancellation
        # shifts left until the implicit bit returns or the exponent
        # floor is hit (gradual underflow into the subnormal range).
        while sig >= self._implicit << 1:
            sig >>= 1
            exp += 1
        if exp > self.exp_max:
            return (-self.max_ordered if negative
                    else self.max_ordered), True
        while sig < self._implicit and exp > 1:
            sig <<= 1
            exp -= 1
        if sig < self._implicit:               # subnormal result
            bits = sig
        else:
            bits = (exp << mant_bits) | (sig - self._implicit)
        return (-bits if negative else bits), False

    def exact_add(self, total: float, word: int) -> float:
        """Software ``Map.addTo``: a float64 sum of decoded words, the
        exact executor the table add approximates."""
        return total + self.decode(word)

    def exact_word(self, total: float) -> int:
        """A float64 total as its wire word (an absent total, 0, reads
        as a cleared register)."""
        return self.encode(total)[0]

    # ------------------------------------------------------------------
    # documented error bounds (what the differential tests assert)
    # ------------------------------------------------------------------
    def roundtrip_error_bound(self, value: float) -> float:
        """Worst-case |decode(encode(v)) - v| for one finite value."""
        return math.ldexp(abs(value), -(self.mantissa_bits + 1)) + \
            self.tiny / 2

    def sum_error_bound(self, values: Iterable[float]) -> float:
        """Worst-case |table-accumulated - exact sum| for a sequential
        accumulation of already-encoded ``values`` (any order).

        Each of the n-1 adds contributes at most ``2^(1-mantissa_bits)``
        relative to the largest magnitude in play, which is itself
        bounded by the sum of absolute values; each encode contributes
        half an ulp.  Loose by design — a *bound*, not an estimate.
        """
        mags = [abs(v) for v in values]
        n = len(mags)
        if n == 0:
            return 0.0
        total_mag = sum(mags)
        per_op = math.ldexp(total_mag, 1 - self.mantissa_bits) + 2 * self.tiny
        per_encode = math.ldexp(total_mag, -(self.mantissa_bits + 1)) + \
            n * self.tiny / 2
        return max(0, n - 1) * per_op + per_encode

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FPCodec(exponent_bits={self.exponent_bits}, "
                f"mantissa_bits={self.mantissa_bits})")


class OrderedMaxCodec:
    """Wire codec for ``agg=fmax``: biased ordered encodings.

    The fp *add* wants a cleared register to read as ``+0.0`` (the add
    identity), but the fp *max* wants it to sit below every finite
    value.  FMAX therefore shifts the ordered encoding by
    ``max_ordered + 1`` so the representable range maps to
    ``[1, 2*max_ordered + 1]`` — strictly positive, still far below the
    ``INT32_MAX`` sticky sentinel, and order-preserving, so the switch
    kernel remains a plain integer max.  A cleared register (0) then
    compares below every contribution and decodes to ``-max_value``
    (the finite stand-in for the max identity).

    Because the biased encodings compare like the floats they encode,
    the op's arithmetic is integer max throughout: on the register
    (``add_bits``, which cannot overflow) and in software, where the
    exact total is the largest word seen and 0 stays the identity.
    """

    exact_add = staticmethod(max)
    exact_word = staticmethod(index)

    def __init__(self, base: Optional[FPCodec] = None):
        self.base = base if base is not None else FPCodec()
        self.offset = self.base.max_ordered + 1

    @staticmethod
    def add_bits(register: int, word: int) -> Tuple[int, bool]:
        """Max-combine on the register: never overflows."""
        return (word if word > register else register), False

    def encode(self, value: float) -> Tuple[int, bool]:
        ordered, overflowed = self.base.encode(value)
        return ordered + self.offset, overflowed

    def decode(self, biased: int) -> float:
        if biased == 0:          # cleared register: below everything
            return -self.base.max_value
        return self.base.decode(biased - self.offset)

    def encode_many(self, values: Iterable[float]) -> Tuple[List[int], int]:
        return encode_each(self.encode, values)

    def decode_many(self, column: Iterable[int]) -> List[float]:
        return list(map(self.decode, column))

    def roundtrip_error_bound(self, value: float) -> float:
        return self.base.roundtrip_error_bound(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OrderedMaxCodec({self.base!r})"


#: The deployment-wide codec: NetFC's layout scaled to the 32-bit
#: register width.  Pipeline kernels and host agents share this single
#: instance so encodings agree end to end.
DEFAULT_FP_CODEC = FPCodec()

#: The agg=fmax wire codec over the same table layout.
DEFAULT_FMAX_CODEC = OrderedMaxCodec(DEFAULT_FP_CODEC)
