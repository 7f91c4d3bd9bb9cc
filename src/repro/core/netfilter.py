"""NetFilter parsing: the user's JSON INC configuration (paper Figure 3).

A NetFilter names the application, sets the floating-point precision,
and wires message fields to the five reliable INC primitives.  It
compiles into a :class:`~repro.protocol.rips.RIPProgram`, the
network-facing form consumed by switches and agents.

Example (the paper's gradient-aggregation filter)::

    {
      "AppName": "DT-1",
      "Precision": 8,
      "get": "AgtrGrad.tensor",
      "addTo": "NewGrad.tensor",
      "clear": "copy",
      "modify": "nop",
      "CntFwd": {"to": "ALL", "threshold": 2, "key": "ClientID"}
    }
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.protocol import (
    AggOp,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
    RetryMode,
    StreamOp,
)

__all__ = ["parse_netfilter", "NetFilterError"]

_KNOWN_KEYS = {"AppName", "Precision", "get", "addTo", "clear", "modify",
               "CntFwd", "retry", "agg"}

# What a NetFilter names with each enum's values, for error messages.
_ENUM_NOUNS = {ClearPolicy: "clear policy", AggOp: "agg op",
               RetryMode: "retry mode", StreamOp: "Stream.modify op",
               ForwardTarget: "CntFwd target"}


class NetFilterError(ValueError):
    """Raised for malformed NetFilter configurations.

    A rejected field starts the message: ``"clear: unknown clear policy
    'sometimes'; ..."`` (a sub-field as ``CntFwd.to``).
    """


def parse_netfilter(source: Any) -> RIPProgram:
    """Compile a NetFilter into a RIP program.

    ``source`` may be a JSON string or an already-decoded dict.
    """
    if isinstance(source, (str, bytes)):
        try:
            config = json.loads(source)
        except json.JSONDecodeError as exc:
            raise NetFilterError(f"invalid NetFilter JSON: {exc}") from None
    elif isinstance(source, dict):
        config = dict(source)
    else:
        raise NetFilterError(
            f"NetFilter must be JSON text or a dict, got "
            f"{type(source).__name__}")

    unknown = set(config) - _KNOWN_KEYS
    if unknown:
        raise NetFilterError(
            f"unknown NetFilter keys: {sorted(unknown)}; "
            f"allowed: {sorted(_KNOWN_KEYS)}")

    app_name = config.get("AppName")
    if not app_name or not isinstance(app_name, str):
        raise NetFilterError("AppName: NetFilter requires a string AppName")

    precision = config.get("Precision", 0)
    if not isinstance(precision, int) or not 0 <= precision <= 9:
        raise NetFilterError("Precision: must be an integer in [0, 9]")

    get_field = _field_or_none(config.get("get", "nop"), "get")
    add_field = _field_or_none(config.get("addTo", "nop"), "addTo")

    clear = _parse_enum(ClearPolicy, config.get("clear", "nop"), "clear")

    modify_op, modify_para = _parse_modify(config.get("modify", "nop"))
    cntfwd = _parse_cntfwd(config.get("CntFwd"))

    agg = _parse_enum(AggOp, config.get("agg", "add"), "agg")

    retry_text = config.get("retry")
    if retry_text is not None:
        retry = _parse_enum(RetryMode, retry_text, "retry")
    else:
        # test&set (threshold 1) implies re-arm-on-retry spin semantics.
        retry = RetryMode.FRESH if cntfwd.is_test_and_set \
            else RetryMode.PERSIST

    try:
        return RIPProgram(
            app_name=app_name, precision=precision, get_field=get_field,
            add_to_field=add_field, clear=clear, modify_op=modify_op,
            modify_para=modify_para, cntfwd=cntfwd, retry=retry, agg=agg)
    except ValueError as exc:
        # The fields are valid one by one: what RIPProgram rejects is
        # how an fp agg combines with the others.
        raise NetFilterError(f"agg: {exc}") from None


def _parse_enum(kind, value: Any, field: str):
    """The ``kind`` member a NetFilter spells ``value`` (any case, blanks
    around it ignored); anything else is a :class:`NetFilterError` naming
    ``field``."""
    if not isinstance(value, str):
        raise NetFilterError(f"{field}: must be a string, got "
                             f"{type(value).__name__}")
    try:
        return kind(value.strip().lower())
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise NetFilterError(
            f"{field}: unknown {_ENUM_NOUNS[kind]} {value!r}; expected one "
            f"of: {valid}") from None


def _field_or_none(value: Any, field: str) -> Optional[str]:
    if not isinstance(value, str):
        raise NetFilterError(f"{field}: must be a string field reference "
                             f"or \"nop\"")
    if value.lower() == "nop":
        return None
    if "." not in value:
        raise NetFilterError(
            f"{field}: must reference Message.field, got {value!r}")
    return value


def _parse_modify(value: Any) -> Tuple[StreamOp, int]:
    if isinstance(value, str):
        if ":" in value:
            op_text, para_text = value.split(":", 1)
            try:
                para = int(para_text)
            except ValueError:
                raise NetFilterError(
                    f"modify: parameter must be an integer, got "
                    f"{para_text!r}") from None
        else:
            op_text, para = value, 0
        return _parse_enum(StreamOp, op_text, "modify"), para
    if isinstance(value, dict):
        op = _parse_enum(StreamOp, value.get("op", "nop"), "modify.op")
        para = value.get("para", 0)
        if not isinstance(para, int):
            raise NetFilterError("modify.para: must be an integer")
        return op, para
    raise NetFilterError("modify: must be \"op\", \"op:para\", or "
                         "{\"op\": ..., \"para\": ...}")


def _parse_cntfwd(value: Any) -> CntFwdSpec:
    if value is None:
        return CntFwdSpec()
    if not isinstance(value, dict):
        raise NetFilterError("CntFwd: must be an object")
    unknown = set(value) - {"to", "threshold", "key"}
    if unknown:
        raise NetFilterError(f"CntFwd: unknown CntFwd keys: "
                             f"{sorted(unknown)}")
    target = _parse_enum(ForwardTarget, value.get("to", "SERVER"),
                         "CntFwd.to")
    threshold = value.get("threshold", 0)
    if not isinstance(threshold, int) or threshold < 0:
        raise NetFilterError("CntFwd.threshold: must be a non-negative int")
    key = value.get("key", "NULL")
    if not isinstance(key, str):
        raise NetFilterError("CntFwd.key: must be a string")
    return CntFwdSpec(target=target, threshold=threshold, key=key)


