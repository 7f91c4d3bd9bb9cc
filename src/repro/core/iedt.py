"""INC-enabled data types (IEDTs), paper §4.

IEDTs are the field types NetRPC recognises and processes in the
network: floating-point/integer arrays and string/integer-keyed maps.
Everything else in a message is a plain gRPC field that rides along as
opaque payload.

Each IEDT knows how to turn a Python value into the INC layer's
``(key, int32)`` item stream (quantizing floats with the application's
precision) and back.
"""

from __future__ import annotations

import enum
from typing import Any, Collection, Dict, List, Sequence, Tuple

from repro.protocol import Quantizer

__all__ = ["IEDTKind", "IEDT_TYPES", "is_iedt", "iedt_kind",
           "encode_items", "decode_items", "encode_column", "decode_column",
           "default_value"]

_REAL_TYPES = frozenset((float, int))
_INT_TYPES = frozenset((int,))


class IEDTKind(enum.Enum):
    """The collection shapes NetRPC can process in-network (Table 1)."""

    FP_ARRAY = "netrpc.FPArray"        # float values, integer indices
    INT_ARRAY = "netrpc.INT32Array"    # int32 values, integer indices
    STR_INT_MAP = "netrpc.STRINTMap"   # string keys -> int32 values
    INT_INT_MAP = "netrpc.INTINTMap"   # integer keys -> int32 values
    FP_MAP = "netrpc.STRFPMap"         # string keys -> float values

    def __init__(self, type_name: str):
        # Shape flags are plain member attributes, fixed when the enum is
        # built: the codecs and stubs test them per field on every call.
        self.is_array: bool = type_name.endswith("Array")
        self.is_map: bool = not self.is_array
        self.is_float: bool = "FP" in type_name


IEDT_TYPES: Dict[str, IEDTKind] = {kind.value: kind for kind in IEDTKind}


def is_iedt(type_name: str) -> bool:
    return type_name in IEDT_TYPES


def iedt_kind(type_name: str) -> IEDTKind:
    try:
        return IEDT_TYPES[type_name]
    except KeyError:
        raise ValueError(f"{type_name!r} is not an INC-enabled data type; "
                         f"known IEDTs: {sorted(IEDT_TYPES)}") from None


def default_value(kind: IEDTKind) -> Any:
    return [] if kind.is_array else {}


def _checked(kind: IEDTKind, elements: Collection[Any]) -> Collection[Any]:
    """``elements`` once each is known to be a number ``kind`` holds.

    One C-level pass over the element types settles the common field;
    only a field holding something other than plain ``int``/``float``
    is walked in Python, to name the offender or to admit a subclass
    (which float kinds hand on as a plain float).
    """
    if kind.is_float:
        if set(map(type, elements)) <= _REAL_TYPES:
            return elements
        for element in elements:
            if isinstance(element, bool) or \
                    not isinstance(element, (int, float)):
                raise TypeError(f"{kind.value} holds real numbers, got "
                                f"{type(element).__name__}")
        return [float(element) for element in elements]
    if set(map(type, elements)) <= _INT_TYPES:
        return elements
    for element in elements:
        if not isinstance(element, int) or isinstance(element, bool):
            raise TypeError(f"{kind.value} holds integers, got "
                            f"{type(element).__name__}")
    return elements


def encode_column(kind: IEDTKind, value: Sequence[Any], quantizer: Quantizer
                  ) -> Tuple[List[int], int]:
    """Convert an array field into its int32 value column.

    Returns ``(column, precheck_overflows)``; the indices are implicit
    (position ``i`` is index ``i``).  This is the only array encoder:
    the dense SyncAgtr path ships the column as is, and
    :func:`encode_items` derives its rows from it.
    """
    elements = _checked(kind, value)
    if kind.is_float:
        return quantizer.encode_many(elements)
    return list(elements), 0


def decode_column(kind: IEDTKind, column: Sequence[int],
                  quantizer: Quantizer) -> List[Any]:
    """Convert an int32 result column back into an array field value."""
    if kind.is_float:
        return quantizer.decode_many(column)
    return list(column)


def encode_items(kind: IEDTKind, value: Any, quantizer: Quantizer
                 ) -> Tuple[List[Tuple[Any, int]], int]:
    """Convert an IEDT field value into INC stream items.

    Returns ``(items, precheck_overflows)`` where items are
    ``(key_or_index, int32_value)`` pairs and the overflow count reports
    values the quantizer could not fit (the agent routes whole chunks
    through the server when the switch reports overflow, so a saturated
    encoding is still corrected downstream — but callers may want to
    warn).

    The kind is dispatched once per field, not per element: map keys and
    then the elements are type-checked by one C-level pass over their
    types (Python walks them only to name an offender or admit a
    subclass), and float kinds are encoded as one column.
    """
    if kind.is_array:
        column, overflows = encode_column(kind, value, quantizer)
        return list(enumerate(column)), overflows
    key_type = int if kind is IEDTKind.INT_INT_MAP else str
    if not set(map(type, value)) <= {key_type}:
        # Admits a subclass; names the first key of another type.
        for key in value:
            if not isinstance(key, key_type):
                raise TypeError(f"{kind.value} keys must be "
                                f"{key_type.__name__}, got "
                                f"{type(key).__name__}")
    if kind.is_float:
        column, overflows = quantizer.encode_many(
            _checked(kind, value.values()))
        return list(zip(value, column)), overflows
    # Integer kinds pass through: the (key, element) pairs are the items.
    if not set(map(type, value.values())) <= _INT_TYPES:
        _checked(kind, value.values())
    return list(value.items()), 0


def decode_items(kind: IEDTKind, values: Dict[Any, int],
                 quantizer: Quantizer, length: int = 0) -> Any:
    """Convert INC result values back into an IEDT field value."""
    if kind.is_array:
        get = values.get
        return decode_column(
            kind, [get(index, 0) for index in range(length)], quantizer)
    convert = quantizer.decode if kind.is_float else int
    return {key: convert(fixed) for key, fixed in values.items()}
