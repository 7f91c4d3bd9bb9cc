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


class NetFilterError(ValueError):
    """Raised for malformed NetFilter configurations."""


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
        raise NetFilterError("NetFilter requires a string AppName")

    precision = config.get("Precision", 0)
    if not isinstance(precision, int):
        raise NetFilterError("Precision must be an integer")

    get_field = _field_or_none(config.get("get", "nop"), "get")
    add_field = _field_or_none(config.get("addTo", "nop"), "addTo")

    clear_text = config.get("clear", "nop")
    try:
        clear = ClearPolicy.parse(clear_text)
    except ValueError as exc:
        raise NetFilterError(str(exc)) from None

    modify_op, modify_para = _parse_modify(config.get("modify", "nop"))
    cntfwd = _parse_cntfwd(config.get("CntFwd"))

    agg_text = config.get("agg", "add")
    if not isinstance(agg_text, str):
        raise NetFilterError("agg must be a string operator name")
    try:
        agg = AggOp.parse(agg_text)
    except ValueError as exc:
        raise NetFilterError(str(exc)) from None

    retry_text = config.get("retry")
    if retry_text is not None:
        try:
            retry = RetryMode.parse(retry_text)
        except ValueError as exc:
            raise NetFilterError(str(exc)) from None
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
        raise NetFilterError(str(exc)) from None


def _field_or_none(value: Any, which: str) -> Optional[str]:
    if not isinstance(value, str):
        raise NetFilterError(f"{which} must be a string field reference "
                             f"or \"nop\"")
    if value.lower() == "nop":
        return None
    if "." not in value:
        raise NetFilterError(
            f"{which} must reference Message.field, got {value!r}")
    return value


def _parse_modify(value: Any) -> Tuple[StreamOp, int]:
    if isinstance(value, str):
        if ":" in value:
            op_text, para_text = value.split(":", 1)
            try:
                para = int(para_text)
            except ValueError:
                raise NetFilterError(
                    f"modify parameter must be an integer, got "
                    f"{para_text!r}") from None
        else:
            op_text, para = value, 0
        try:
            return StreamOp.parse(op_text), para
        except ValueError as exc:
            raise NetFilterError(str(exc)) from None
    if isinstance(value, dict):
        try:
            op = StreamOp.parse(value.get("op", "nop"))
        except ValueError as exc:
            raise NetFilterError(str(exc)) from None
        para = value.get("para", 0)
        if not isinstance(para, int):
            raise NetFilterError("modify para must be an integer")
        return op, para
    raise NetFilterError("modify must be \"op\", \"op:para\", or "
                         "{\"op\": ..., \"para\": ...}")


def _parse_cntfwd(value: Any) -> CntFwdSpec:
    if value is None:
        return CntFwdSpec()
    if not isinstance(value, dict):
        raise NetFilterError("CntFwd must be an object")
    unknown = set(value) - {"to", "threshold", "key"}
    if unknown:
        raise NetFilterError(f"unknown CntFwd keys: {sorted(unknown)}")
    try:
        target = ForwardTarget.parse(value.get("to", "SERVER"))
    except ValueError as exc:
        raise NetFilterError(str(exc)) from None
    threshold = value.get("threshold", 0)
    if not isinstance(threshold, int) or threshold < 0:
        raise NetFilterError("CntFwd threshold must be a non-negative int")
    key = value.get("key", "NULL")
    if not isinstance(key, str):
        raise NetFilterError("CntFwd key must be a string")
    return CntFwdSpec(target=target, threshold=threshold, key=key)


