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
from typing import Any, Dict, List, Tuple

from repro.protocol import Quantizer

__all__ = ["IEDTKind", "IEDT_TYPES", "is_iedt", "iedt_kind",
           "encode_items", "decode_items", "default_value"]


class IEDTKind(enum.Enum):
    """The collection shapes NetRPC can process in-network (Table 1)."""

    FP_ARRAY = "netrpc.FPArray"        # float values, integer indices
    INT_ARRAY = "netrpc.INT32Array"    # int32 values, integer indices
    STR_INT_MAP = "netrpc.STRINTMap"   # string keys -> int32 values
    INT_INT_MAP = "netrpc.INTINTMap"   # integer keys -> int32 values
    FP_MAP = "netrpc.STRFPMap"         # string keys -> float values

    @property
    def is_array(self) -> bool:
        return self in (IEDTKind.FP_ARRAY, IEDTKind.INT_ARRAY)

    @property
    def is_map(self) -> bool:
        return not self.is_array

    @property
    def is_float(self) -> bool:
        return self in (IEDTKind.FP_ARRAY, IEDTKind.FP_MAP)


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


def encode_items(kind: IEDTKind, value: Any, quantizer: Quantizer
                 ) -> Tuple[List[Tuple[Any, int]], int]:
    """Convert an IEDT field value into INC stream items.

    Returns ``(items, precheck_overflows)`` where items are
    ``(key_or_index, int32_value)`` pairs and the overflow count reports
    values the quantizer could not fit (the agent routes whole chunks
    through the server when the switch reports overflow, so a saturated
    encoding is still corrected downstream — but callers may want to
    warn).

    The kind is dispatched once per field, not per element: map keys are
    type-checked up front, then one loop encodes (float kinds) or
    type-checks (integer kinds) the elements.
    """
    if kind.is_array:
        pairs = enumerate(value)
    else:
        key_type = int if kind is IEDTKind.INT_INT_MAP else str
        for key in value:
            if not isinstance(key, key_type):
                raise TypeError(f"{kind.value} keys must be "
                                f"{key_type.__name__}, got "
                                f"{type(key).__name__}")
        pairs = value.items()
    if kind.is_float:
        encode = quantizer.encode
        overflows = 0
        items: List[Tuple[Any, int]] = []
        for key, element in pairs:
            fixed, over = encode(float(element))
            overflows += over
            items.append((key, fixed))
        return items, overflows
    # Integer kinds pass through: the (key, element) pairs are the items.
    items = list(pairs)
    for _key, element in items:
        if not isinstance(element, int) or isinstance(element, bool):
            raise TypeError(f"{kind.value} holds integers, got "
                            f"{type(element).__name__}")
    return items, 0


def decode_items(kind: IEDTKind, values: Dict[Any, int],
                 quantizer: Quantizer, length: int = 0) -> Any:
    """Convert INC result values back into an IEDT field value."""
    convert = quantizer.decode if kind.is_float else int
    if kind.is_array:
        get = values.get
        return [convert(get(index, 0)) for index in range(length)]
    return {key: convert(fixed) for key, fixed in values.items()}
