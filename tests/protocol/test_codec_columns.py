"""Whole-tensor codecs agree with the per-element methods.

``encode_many`` / ``decode_many`` are what the RPC layer calls — once per
tensor — on all three wire codecs.  They are an optimisation of, never a
second definition of, ``encode`` / ``decode``: same column element for
element, same overflow count, same exception type for a tensor the
per-element loop would reject (and then no result at all).
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.protocol import (DEFAULT_FMAX_CODEC, DEFAULT_FP_CODEC, INT32_MAX,
                            INT32_MIN, Quantizer)

CODECS = [Quantizer(0), Quantizer(6), DEFAULT_FP_CODEC, DEFAULT_FMAX_CODEC]
CODEC_IDS = ["q0", "q6", "fadd", "fmax"]
codecs = pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)

INF = float("inf")
SMALLEST_SUBNORMAL = 5e-324
SMALLEST_NORMAL = 2.2250738585072014e-308

# Every float (±inf and subnormals included), the corners by name so
# they show up in every run, values that land on a rounding tie once
# scaled by 1 or by 10**6, and plain ints (legal array elements).
elements = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([INF, -INF, 1e305, -1e305, -0.0, 0.0,
                     SMALLEST_SUBNORMAL, -SMALLEST_SUBNORMAL,
                     SMALLEST_NORMAL, 2147.483647, -2147.483648,
                     2147.4836475, float(INT32_MAX), float(INT32_MIN),
                     INT32_MAX + 0.5, INT32_MIN - 0.5]),
    st.integers(-3000, 3000).map(lambda k: k + 0.5),
    st.integers(-3000, 3000).map(lambda k: (k + 0.5) / 1e6),
    st.integers(-10**7, 10**7),
)
tensors = st.lists(elements, max_size=40)


def per_element(codec, values):
    encoded = [codec.encode(value) for value in values]
    return ([fixed for fixed, _over in encoded],
            sum(over for _fixed, over in encoded))


@codecs
@given(tensors)
def test_encode_many_matches_encode(codec, values):
    column, overflows = codec.encode_many(values)
    assert (column, overflows) == per_element(codec, values)
    assert all(type(fixed) is int for fixed in column)


@codecs
@given(tensors)
def test_decode_many_matches_decode(codec, values):
    column, _overflows = codec.encode_many(values)
    decoded = codec.decode_many(column)
    assert decoded == [codec.decode(fixed) for fixed in column]
    assert all(type(value) is float for value in decoded)
    # -0.0 must not come back as a different zero than decode() gives.
    assert [math.copysign(1, v) for v in decoded] == \
        [math.copysign(1, codec.decode(fixed)) for fixed in column]


@pytest.mark.parametrize("codec", CODECS[:2], ids=CODEC_IDS[:2])
@given(st.lists(st.integers(-2**40, 2**40), max_size=40))
def test_quantizer_decodes_software_corrected_sums(codec, column):
    # An overflow-corrected chunk carries exact 64-bit sums (§5.2.1).
    assert codec.decode_many(column) == [codec.decode(v) for v in column]


@codecs
@given(tensors, st.integers(min_value=0), st.sampled_from(
    [float("nan"), -float("nan")]))
def test_nan_anywhere_rejects_the_whole_tensor(codec, values, where, nan):
    values = list(values)
    values.insert(where % (len(values) + 1), nan)
    with pytest.raises(ValueError) as per_element_error:
        per_element(codec, values)
    with pytest.raises(ValueError) as error:
        codec.encode_many(values)
    assert str(error.value) == str(per_element_error.value)


@codecs
def test_empty_tensor(codec):
    assert codec.encode_many([]) == ([], 0)
    assert codec.decode_many([]) == []


@pytest.mark.parametrize("precision", [0, 6])
def test_scaled_ties_round_half_to_even(precision):
    codec = Quantizer(precision)
    scale = 10 ** precision
    ties = [(k, (k + 0.5) / scale) for k in range(-40, 40)]
    # Only values whose scaled product is *exactly* k + 0.5 are ties.
    ties = [(k, v) for k, v in ties if v * scale == k + 0.5]
    assert len(ties) >= 10
    column, overflows = codec.encode_many([v for _k, v in ties])
    assert column == [k if k % 2 == 0 else k + 1 for k, _v in ties]
    assert overflows == 0


def test_saturating_values_are_counted_not_wrapped():
    codec = Quantizer(6)
    values = [0.25, 2147.483647, 2147.4836475, 1e305, -INF, -2147.483648]
    assert codec.encode_many(values) == (
        [250000, INT32_MAX, INT32_MAX, INT32_MAX, INT32_MIN, INT32_MIN], 3)

