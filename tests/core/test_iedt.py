"""Tests for INC-enabled data type encoding/decoding."""

import re
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.core import (IEDTKind, decode_column, decode_items, encode_column,
                        encode_items, is_iedt)
from repro.core.iedt import default_value, iedt_kind
from repro.protocol import (DEFAULT_FMAX_CODEC, DEFAULT_FP_CODEC, INT32_MAX,
                            INT32_MIN, Quantizer)

FLOAT_KINDS = [IEDTKind.FP_ARRAY, IEDTKind.FP_MAP]
INT_KINDS = [IEDTKind.INT_ARRAY, IEDTKind.STR_INT_MAP, IEDTKind.INT_INT_MAP]
MAP_KINDS = [IEDTKind.STR_INT_MAP, IEDTKind.INT_INT_MAP, IEDTKind.FP_MAP]
# (bad element, kind): what each kind must refuse to encode.  Integer
# kinds take ints only; float kinds take real numbers, not whatever
# float() happens to accept.
BAD_ELEMENTS = (
    [(bad, kind) for kind in INT_KINDS
     for bad in (True, False, 1.5, "7", None)]
    + [(bad, kind) for kind in FLOAT_KINDS
       for bad in (True, False, "7", "x", b"7", None, 1j, Decimal(1))])


def field_value(kind, elements):
    """``elements`` shaped as a value of ``kind`` (valid key types)."""
    if kind.is_array:
        return list(elements)
    if kind is IEDTKind.INT_INT_MAP:
        return dict(enumerate(elements))
    return {f"k{i}": element for i, element in enumerate(elements)}


class TestKinds:
    def test_known_types(self):
        assert is_iedt("netrpc.FPArray")
        assert is_iedt("netrpc.STRINTMap")
        assert not is_iedt("int32")

    def test_kind_lookup(self):
        assert iedt_kind("netrpc.FPArray") is IEDTKind.FP_ARRAY
        with pytest.raises(ValueError):
            iedt_kind("netrpc.Tensor")

    def test_shape_flags(self):
        assert IEDTKind.FP_ARRAY.is_array and IEDTKind.FP_ARRAY.is_float
        assert IEDTKind.STR_INT_MAP.is_map
        assert not IEDTKind.INT_ARRAY.is_float

    def test_defaults(self):
        assert default_value(IEDTKind.FP_ARRAY) == []
        assert default_value(IEDTKind.STR_INT_MAP) == {}


class TestEncoding:
    def test_fp_array_quantizes(self):
        items, overflows = encode_items(IEDTKind.FP_ARRAY, [0.5, -1.25],
                                        Quantizer(2))
        assert items == [(0, 50), (1, -125)]
        assert overflows == 0

    def test_int_array_passthrough(self):
        items, _ = encode_items(IEDTKind.INT_ARRAY, [5, -3], Quantizer(0))
        assert items == [(0, 5), (1, -3)]

    def test_str_map(self):
        items, _ = encode_items(IEDTKind.STR_INT_MAP, {"a": 1, "b": 2},
                                Quantizer(0))
        assert sorted(items) == [("a", 1), ("b", 2)]

    def test_int_map_key_type_enforced(self):
        with pytest.raises(TypeError):
            encode_items(IEDTKind.INT_INT_MAP, {"str": 1}, Quantizer(0))
        with pytest.raises(TypeError):
            encode_items(IEDTKind.STR_INT_MAP, {5: 1}, Quantizer(0))

    def test_int_value_type_enforced(self):
        with pytest.raises(TypeError):
            encode_items(IEDTKind.INT_ARRAY, [1.5], Quantizer(0))
        with pytest.raises(TypeError):
            encode_items(IEDTKind.INT_ARRAY, [True], Quantizer(0))

    def test_overflow_precheck_counts(self):
        items, overflows = encode_items(IEDTKind.FP_ARRAY, [1e9],
                                        Quantizer(8))
        assert overflows == 1
        assert items[0][1] == INT32_MAX

    # Every rejection on every kind it applies to: the per-field dispatch
    # must not lose a check that the per-element one made.
    @pytest.mark.parametrize("kind", FLOAT_KINDS)
    def test_nan_rejected(self, kind):
        with pytest.raises(ValueError):
            encode_items(kind, field_value(kind, [0.5, float("nan")]),
                         Quantizer(2))

    @pytest.mark.parametrize("kind", FLOAT_KINDS)
    def test_infinities_saturate_and_count(self, kind):
        value = field_value(kind, [float("inf"), 0.25, float("-inf")])
        items, overflows = encode_items(kind, value, Quantizer(2))
        assert [fixed for _key, fixed in items] == \
            [INT32_MAX, 25, INT32_MIN]
        assert [key for key, _fixed in items] == \
            (list(value) if kind.is_map else [0, 1, 2])
        assert overflows == 2

    @pytest.mark.parametrize(
        "bad,kind", BAD_ELEMENTS,
        ids=[f"{bad}-{kind}" for bad, kind in BAD_ELEMENTS])
    def test_non_integer_element_rejected(self, kind, bad):
        # ... nor, on the float kinds, a non-real one.  The message names
        # the kind, on the row path and on the column path alike.
        names_kind = re.escape(kind.value)
        with pytest.raises(TypeError, match=names_kind):
            encode_items(kind, field_value(kind, [3, bad]), Quantizer(2))
        if kind.is_array:
            with pytest.raises(TypeError, match=names_kind):
                encode_column(kind, [3, bad], Quantizer(2))

    @pytest.mark.parametrize("kind", FLOAT_KINDS)
    def test_float_kinds_take_ints_and_float_subclasses(self, kind):
        class Celsius(float):
            pass

        value = field_value(kind, [7, Celsius(0.5), -2.25])
        items, overflows = encode_items(kind, value, Quantizer(2))
        assert [fixed for _key, fixed in items] == [700, 50, -225]
        assert overflows == 0

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_wrong_key_type_rejected(self, kind):
        good = field_value(kind, [1, 2])
        bad_key = "seven" if kind is IEDTKind.INT_INT_MAP else 7
        with pytest.raises(TypeError):
            encode_items(kind, {**good, bad_key: 3}, Quantizer(0))

    @pytest.mark.parametrize("kind", list(IEDTKind))
    def test_empty_field(self, kind):
        assert encode_items(kind, default_value(kind), Quantizer(3)) == \
            ([], 0)

    @pytest.mark.parametrize("kind", FLOAT_KINDS)
    @pytest.mark.parametrize("codec", [Quantizer(0), Quantizer(6),
                                       DEFAULT_FP_CODEC, DEFAULT_FMAX_CODEC],
                             ids=["q0", "q6", "fadd", "fmax"])
    @given(st.lists(st.floats(allow_nan=False), max_size=40))
    def test_matches_per_element_codec(self, kind, codec, elements):
        value = field_value(kind, elements)
        items, overflows = encode_items(kind, value, codec)
        encoded = [codec.encode(float(element)) for element in elements]
        keys = list(value) if kind.is_map else list(range(len(elements)))
        assert items == [(key, fixed)
                         for key, (fixed, _over) in zip(keys, encoded)]
        assert overflows == sum(over for _fixed, over in encoded)
        if kind.is_array:
            # The column encoder is the array encoder: same values with
            # the indices left implicit, and back through one decoder.
            column, column_overflows = encode_column(kind, value, codec)
            assert column == [fixed for fixed, _over in encoded]
            assert column_overflows == overflows
            assert decode_column(kind, column, codec) == \
                [codec.decode(fixed) for fixed in column] == \
                decode_items(kind, dict(items), codec, length=len(column))


class TestDecoding:
    def test_fp_array_dequantizes(self):
        out = decode_items(IEDTKind.FP_ARRAY, {0: 50, 1: -125},
                           Quantizer(2), length=2)
        assert out == [0.5, -1.25]

    def test_int_column_roundtrip_copies(self):
        value = [5, -3, 0]
        column, overflows = encode_column(IEDTKind.INT_ARRAY, value,
                                          Quantizer(0))
        assert (column, overflows) == (value, 0) and column is not value
        decoded = decode_column(IEDTKind.INT_ARRAY, column, Quantizer(0))
        assert decoded == value and decoded is not column

    def test_missing_indices_decode_to_zero(self):
        out = decode_items(IEDTKind.INT_ARRAY, {1: 7}, Quantizer(0),
                           length=3)
        assert out == [0, 7, 0]

    def test_str_map_decoding(self):
        out = decode_items(IEDTKind.STR_INT_MAP, {"a": 5}, Quantizer(0))
        assert out == {"a": 5}

    def test_fp_map_decoding(self):
        out = decode_items(IEDTKind.FP_MAP, {"a": 250}, Quantizer(2))
        assert out == {"a": 2.5}

    def test_int_map_decoding(self):
        out = decode_items(IEDTKind.INT_INT_MAP, {3: 5, 4: -1},
                           Quantizer(0))
        assert out == {3: 5, 4: -1}

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), max_size=40),
           st.integers(min_value=1, max_value=6))
    def test_roundtrip_error_bounded(self, values, precision):
        q = Quantizer(precision)
        items, overflows = encode_items(IEDTKind.FP_ARRAY, values, q)
        assert overflows == 0
        decoded = decode_items(IEDTKind.FP_ARRAY, dict(items), q,
                               length=len(values))
        for original, roundtripped in zip(values, decoded):
            assert abs(original - roundtripped) <= \
                q.roundtrip_error_bound() + 1e-12
