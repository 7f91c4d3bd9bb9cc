"""Differential proof of the table-based fp kernels (agg=fadd / fmax).

Mirrors the scalar-vs-kernel structure of ``test_kvblock_kernels.py``:
Hypothesis drives the batch kernel (``combine_block``) and a scalar
per-slot reference loop over :func:`combine`, under each fp
codec's ``add_bits``, with the same random program (slots — scattered,
or a consecutive run carried as a ``range`` address column — selection
bitmap, phys-base window, pre-existing register state including sticky
bits) — final register state, payload mutations, and unapplied masks
must agree bit for bit.

On top of that, the *arithmetic* itself is differentially verified
against the IEEE float64 reference: table-accumulated sums must stay
within the documented table-precision bound
(:meth:`FPCodec.sum_error_bound`) for random tensors covering sign
cancellation, subnormal-range magnitudes, overflow-to-saturation, and
accumulation order.

Run with a larger budget via ``FPINC_MAX_EXAMPLES=1000`` (the CI fpinc
step does).
"""

import math
import os

from hypothesis import given, settings, strategies as st
import pytest

from repro.protocol import (
    DEFAULT_FMAX_CODEC,
    DEFAULT_FP_CODEC,
    INT32_MAX,
    KVBlock,
)
from repro.switchsim import RegisterFile

from .test_kvblock_kernels import make_sticky, state

pytestmark = pytest.mark.fpinc

FP_EXAMPLES = int(os.environ.get("FPINC_MAX_EXAMPLES", "200"))

C = DEFAULT_FP_CODEC
MC = DEFAULT_FMAX_CODEC

SEGMENTS = 4
REGS_PER_SEGMENT = 8
CAPACITY = SEGMENTS * REGS_PER_SEGMENT

# Finite floats spanning normal magnitudes, the subnormal range, exact
# negations (sign cancellation), and near-max values (saturation).
floats_st = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-C.tiny * 1000, max_value=C.tiny * 1000,
              allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, C.tiny, -C.tiny,
                     C.max_value, -C.max_value,
                     C.max_value * 0.75, -C.max_value * 0.75]),
)
tensor_st = st.lists(floats_st, min_size=1, max_size=24)

ordered_st = st.builds(lambda v: C.encode(v)[0], floats_st)
addr_st = st.integers(min_value=0, max_value=CAPACITY + 15)
# Scattered slots, or a run of consecutive addresses (a dense linear
# chunk's row) that the block carries as a ``range`` column.
slots_st = st.one_of(
    st.lists(st.tuples(addr_st, ordered_st), min_size=1, max_size=8),
    st.builds(lambda start, values: list(zip(range(start, start + 8),
                                             values)),
              st.sampled_from([0, 4, 5, CAPACITY - 4, CAPACITY + 4]),
              st.lists(ordered_st, min_size=1, max_size=8)))
base_st = st.sampled_from([-8, 0, 8, CAPACITY + 8])
select_st = st.integers(min_value=0, max_value=255)
pre_values_st = st.dictionaries(
    st.integers(min_value=0, max_value=CAPACITY - 1),
    ordered_st.filter(bool),
    max_size=6)
pre_sticky_st = st.sets(st.integers(min_value=0, max_value=CAPACITY - 1),
                        max_size=3)


def slot_block(slots):
    """KVBlock of ``slots``; consecutive addresses become a range."""
    addrs = [addr for addr, _ in slots]
    if addrs == list(range(addrs[0], addrs[0] + len(addrs))):
        addrs = range(addrs[0], addrs[0] + len(addrs))
    return KVBlock.from_columns(addrs, [value for _, value in slots])


def seeded_registers(pre_values, pre_sticky):
    """Two identical register files with the given starting state."""
    out = []
    for _ in range(2):
        regs = RegisterFile(segments=SEGMENTS,
                            registers_per_segment=REGS_PER_SEGMENT)
        for addr, value in pre_values.items():
            regs.write(addr, value)
        for addr in sorted(pre_sticky):
            make_sticky(regs, addr)
        out.append(regs)
    return out


# ----------------------------------------------------------------------
# Scalar reference: a per-slot loop over the scalar combine.
# ----------------------------------------------------------------------
def combine(regs, addr, word, add_bits):
    """One register's ``Map.addTo`` in an op's arithmetic: a sticky
    register refuses; an overflow makes it sticky, keeping its value.
    Returns True when the add was not applied."""
    if regs.is_sticky(addr):
        return True
    result, overflowed = add_bits(regs.read_raw(addr), word)
    if overflowed:
        make_sticky(regs, addr)
        return True
    regs.write(addr, result)
    return False


def scalar_combine(regs, slots, select, base, add_bits):
    """The mask of the slots the combines did not apply."""
    unapplied = 0
    for index, (addr, ordered) in enumerate(slots):
        if select >> index & 1:
            local = addr - base
            if 0 <= local < regs.capacity:
                if combine(regs, local, ordered, add_bits):
                    slots[index] = (addr, INT32_MAX)
                    unapplied |= 1 << index
    return unapplied


# ----------------------------------------------------------------------
# kernel-vs-scalar differential, under both fp codecs
# ----------------------------------------------------------------------
@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(slots=slots_st, select=select_st, base=base_st,
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
@pytest.mark.parametrize("codec", [C, MC], ids=["fadd", "fmax"])
def test_combine_block_matches_scalar_combine(codec, slots, select, base,
                                              pre_values, pre_sticky):
    kernel_regs, ref_regs = seeded_registers(pre_values, pre_sticky)
    block = slot_block(slots)
    ref_slots = list(slots)

    kernel_of = kernel_regs.combine_block(block, select, base,
                                          codec.add_bits)
    ref_of = scalar_combine(ref_regs, ref_slots, select, base,
                            codec.add_bits)

    assert kernel_of == ref_of
    assert block.values_list() == [value for _, value in ref_slots]
    assert state(kernel_regs) == state(ref_regs)


# ----------------------------------------------------------------------
# table arithmetic vs the IEEE float reference
# ----------------------------------------------------------------------
@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(value=floats_st)
def test_encode_decode_roundtrip_within_bound(value):
    ordered, overflowed = C.encode(value)
    assert not overflowed
    assert abs(C.decode(ordered) - value) <= C.roundtrip_error_bound(value)
    # The ordered form never collides with the sticky-read sentinel.
    assert abs(ordered) < INT32_MAX


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(a=floats_st, b=floats_st)
def test_ordered_encoding_is_order_preserving(a, b):
    ea, eb = C.encode(a)[0], C.encode(b)[0]
    if a < b:
        assert ea <= eb
    elif a > b:
        assert ea >= eb


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(tensor=tensor_st)
def test_table_accumulation_within_documented_bound(tensor):
    """Sequential table-fp accumulation vs exact float64 sum."""
    exact = sum(tensor)
    bound = C.sum_error_bound(tensor)
    if not math.isfinite(exact) or abs(exact) > C.max_value / 4 or \
            any(abs(v) > C.max_value / len(tensor) for v in tensor):
        return  # saturation territory: covered by the overflow tests
    acc = 0
    for value in tensor:
        ordered, overflowed = C.encode(value)
        assert not overflowed
        acc, overflowed = C.add_bits(acc, ordered)
        assert not overflowed
    assert abs(C.decode(acc) - exact) <= bound


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(tensor=tensor_st, seed=st.integers(min_value=0, max_value=2**16))
def test_accumulation_order_stays_within_bound(tensor, seed):
    """The error bound holds for ANY accumulation order — the switch
    gives no ordering guarantee across racing workers."""
    import random
    exact = sum(tensor)
    if not math.isfinite(exact) or \
            any(abs(v) > C.max_value / len(tensor) for v in tensor):
        return
    bound = C.sum_error_bound(tensor)
    shuffled = list(tensor)
    random.Random(seed).shuffle(shuffled)
    acc = 0
    for value in shuffled:
        acc, overflowed = C.add_bits(acc, C.encode(value)[0])
        assert not overflowed
    assert abs(C.decode(acc) - exact) <= bound


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(value=floats_st)
def test_sign_cancellation_is_exact(value):
    """x + (-x) must cancel to exactly +0.0 — same exponent, aligned
    mantissas, no truncation anywhere."""
    pos, _ = C.encode(value)
    neg, _ = C.encode(-value)
    assert neg == -pos
    result, overflowed = C.add_bits(pos, neg)
    assert result == 0 and not overflowed
    assert C.decode(result) == 0.0


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(tensor=tensor_st)
def test_fmax_matches_float_max(tensor):
    """Integer max over ordered encodings == fp max at table precision."""
    exact = max(tensor)
    acc = None
    for value in tensor:
        ordered, _ = C.encode(value)
        acc = ordered if acc is None else MC.add_bits(acc, ordered)[0]
    assert abs(C.decode(acc) - exact) <= C.roundtrip_error_bound(exact)


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(a=floats_st, b=floats_st)
def test_biased_fmax_codec_roundtrip_and_order(a, b):
    """The agg=fmax wire codec: strictly positive, order-preserving,
    cleared register (0) below every finite encoding."""
    ea, eb = MC.encode(a)[0], MC.encode(b)[0]
    assert ea > 0 and eb > 0
    if a < b:
        assert ea <= eb
    assert abs(MC.decode(ea) - a) <= MC.roundtrip_error_bound(a)
    assert MC.decode(0) <= min(a, b)


# ----------------------------------------------------------------------
# Deterministic pins for the promised corners.
# ----------------------------------------------------------------------
def test_overflow_saturates_and_sets_sticky():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    big, overflowed = C.encode(C.max_value * 0.75)
    assert not overflowed
    assert not combine(regs, 0, big, C.add_bits)
    # Second add pushes past the largest exponent: sticky set, stored
    # value preserved, reads return the sentinel.
    assert combine(regs, 0, big, C.add_bits)
    assert regs.read_raw(0) == big
    assert regs.is_sticky(0)
    assert regs.read(0) == INT32_MAX
    # Batch kernel agrees.
    block = KVBlock.from_columns([0], [big])
    assert regs.combine_block(block, 1, 0, C.add_bits) == 1
    assert block.values_list() == [INT32_MAX]


def test_encode_saturates_at_format_edge():
    ordered, overflowed = C.encode(C.max_value * 2)
    assert overflowed and ordered == C.max_ordered
    ordered, overflowed = C.encode(float("inf"))
    assert overflowed and ordered == C.max_ordered
    ordered, overflowed = C.encode(float("-inf"))
    assert overflowed and ordered == -C.max_ordered
    with pytest.raises(ValueError):
        C.encode(float("nan"))


def test_subnormal_range_gradual_underflow():
    # The smallest positive value survives a round trip exactly...
    tiny, overflowed = C.encode(C.tiny)
    assert not overflowed and C.decode(tiny) == C.tiny
    # ...and table-adds in the subnormal range are exact (fixed ulp).
    a, _ = C.encode(C.tiny * 3)
    b, _ = C.encode(C.tiny * 5)
    result, overflowed = C.add_bits(a, b)
    assert not overflowed
    assert C.decode(result) == C.tiny * 8
    # Cancellation down into the subnormal range underflows gradually.
    up, _ = C.encode(C.tiny * 9)
    down, _ = C.encode(-C.tiny * 8)
    result, _ = C.add_bits(up, down)
    assert C.decode(result) == C.tiny


def test_cleared_register_is_fp_zero():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    value, _ = C.encode(2.5)
    combine(regs, 4, value, C.add_bits)
    regs.clear(4)
    assert regs.read(4) == 0
    assert C.decode(regs.read(4)) == 0.0
    # Adding x to a cleared register stores exactly encode(x).
    assert not combine(regs, 4, value, C.add_bits)
    assert regs.read_raw(4) == value


def test_fadd_exact_cancellation_evicts_register():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    value, _ = C.encode(1.5)
    combine(regs, 2, value, C.add_bits)
    assert len(regs.occupied_addrs()) == 1
    combine(regs, 2, -value, C.add_bits)
    assert len(regs.occupied_addrs()) == 0
    assert regs.read(2) == 0


def test_fmax_out_of_window_slots_are_skipped():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    base = CAPACITY
    encoded = MC.encode(3.0)[0]
    block = KVBlock.from_columns([0, CAPACITY, CAPACITY + 1],
                                 [encoded] * 3)
    assert not regs.combine_block(block, 7, base, MC.add_bits)
    assert regs.occupied_addrs() == [0, 1]
