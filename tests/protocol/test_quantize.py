"""Property tests for the lossy aggregation codecs (int8 block / top-k).

Both ride the exact integer switch kernels, so the contract under test
is purely host-side: encode -> (switch-style integer accumulate) ->
decode must land within the documented ``error_bound``, and coordinated
top-k merging must equal the dense merge on the selected coordinates.
"""

import os

from hypothesis import given, settings, strategies as st
import pytest

from repro.protocol import Int8BlockCodec, topk_indices
from repro.protocol.quantize import INT8_MAX, INT8_MIN

pytestmark = pytest.mark.fpinc

FP_EXAMPLES = int(os.environ.get("FPINC_MAX_EXAMPLES", "200"))

CODEC = Int8BlockCodec()

values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=32)
workers_st = st.integers(min_value=1, max_value=5)
k_st = st.integers(min_value=0, max_value=40)


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(values=values_st)
def test_int8_roundtrip_within_half_step(values):
    scale, codes = CODEC.encode_block(values)
    assert all(INT8_MIN <= c <= INT8_MAX for c in codes)
    decoded = CODEC.decode_block(scale, codes)
    bound = CODEC.error_bound(scale)
    for original, back in zip(values, decoded):
        assert abs(back - original) <= bound


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(tensors=st.lists(values_st, min_size=1, max_size=5).filter(
    lambda ts: len({len(t) for t in ts}) == 1))
def test_int8_switch_accumulation_within_bound(tensors):
    """W workers encode under one shared clip scale, the switch adds the
    raw codes, the host decodes once: error <= W * scale / 2 per coord."""
    dim = len(tensors[0])
    peak = max((abs(v) for t in tensors for v in t), default=0.0)
    scale = peak / INT8_MAX
    if scale <= 0:
        scale = 1.0
    accumulated = [0] * dim
    for tensor in tensors:
        enc_scale, codes = CODEC.encode_block(tensor, scale=scale)
        assert enc_scale == scale
        for j, code in enumerate(codes):
            accumulated[j] += code  # what the integer kernel computes
    decoded = CODEC.decode_block(scale, accumulated)
    bound = CODEC.error_bound(scale, contributions=len(tensors))
    for j in range(dim):
        exact = sum(t[j] for t in tensors)
        assert abs(decoded[j] - exact) <= bound


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(values=values_st, factor=st.floats(min_value=1.5, max_value=100.0))
def test_int8_explicit_scale_saturates(values, factor):
    """Out-of-range values clip to ±127 under an explicit scale."""
    peak = max(abs(v) for v in values)
    scale = peak / INT8_MAX / factor  # too small on purpose
    if scale <= 0:  # zero or denormal-underflowed peak
        return
    _, codes = CODEC.encode_block(values, scale=scale)
    assert all(INT8_MIN <= c <= INT8_MAX for c in codes)
    for v, c in zip(values, codes):
        if abs(v) > INT8_MAX * scale:
            assert c == (INT8_MAX if v > 0 else INT8_MIN)


def test_int8_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        CODEC.encode_block([1.0], scale=0.0)
    with pytest.raises(ValueError):
        CODEC.encode_block([1.0], scale=-1.0)


def test_int8_all_zero_block_uses_unit_scale():
    scale, codes = CODEC.encode_block([0.0, 0.0])
    assert scale == 1.0 and codes == [0, 0]
    assert CODEC.decode_block(scale, codes) == [0.0, 0.0]


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------
@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(values=values_st, k=k_st)
def test_topk_indices_are_the_largest_magnitudes(values, k):
    idx = topk_indices(values, k)
    assert idx == sorted(idx)
    assert len(idx) == min(k, len(values))
    if not idx:
        return
    chosen = set(idx)
    floor = min(abs(values[i]) for i in idx)
    for i, v in enumerate(values):
        if i not in chosen:
            assert abs(v) <= floor


@settings(max_examples=FP_EXAMPLES, deadline=None)
@given(tensors=st.lists(values_st, min_size=1, max_size=5).filter(
    lambda ts: len({len(t) for t in ts}) == 1),
    k=k_st)
def test_coordinated_topk_merge_equals_dense_merge_on_selection(tensors, k):
    """All workers sparsify against the same reference ranking; the
    sparse sum equals the dense sum exactly on every selected coord."""
    dim = len(tensors[0])
    reference = [sum(t[j] for t in tensors) for j in range(dim)]
    selection = topk_indices(reference, k)

    merged = {}
    for tensor in tensors:
        for i in selection:
            merged[i] = merged.get(i, 0.0) + float(tensor[i])

    for i in selection:
        assert merged[i] == sum(t[i] for t in tensors)
    assert set(merged) == set(selection)


def test_topk_ties_break_toward_lower_index():
    assert topk_indices([2.0, -2.0, 2.0, 1.0], 2) == [0, 1]


def test_topk_k_at_least_length_selects_everything():
    assert topk_indices([3.0, 1.0], 5) == [0, 1]
    assert topk_indices([], 3) == []


def test_topk_rejects_negative_k():
    with pytest.raises(ValueError):
        topk_indices([1.0], -1)
