"""Reliable INC Primitive (RIP) programs.

A :class:`RIPProgram` is the compiled form of a user's NetFilter file
(paper §4, Figure 3): which of the five primitives are enabled and with
what arguments.  The same object is consumed by three parties:

* the RPC layer, to know which message fields feed the INC data stream;
* the switch pipeline, to drive per-packet processing (Figure 15);
* the host agents, to execute the identical semantics in software on
  the fallback path.

Parsing of the user-facing JSON lives in :mod:`repro.core.netfilter`;
this module only holds the validated, network-facing representation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .ops import StreamOp

__all__ = [
    "AggOp",
    "ClearPolicy",
    "ForwardTarget",
    "RetryMode",
    "CntFwdSpec",
    "RIPProgram",
]


class AggOp(enum.Enum):
    """Aggregation operator applied by ``Map.addTo`` (NetFilter ``agg``).

    ``ADD`` is the paper's 32-bit saturating integer accumulate.  The
    remaining modes extend it:

    * ``FADD``/``FMAX`` — table-based floating point à la NetFC; register
      contents are :mod:`~repro.protocol.fpcodec` ordered encodings and
      the switch runs the lookup-table add / integer-max kernels.
    * ``QADD`` — int8 block-quantized add: clients pre-quantize to int8
      codes under a shared scale, the switch accumulates the codes with
      the plain integer kernel (host-side decode restores floats).
    * ``TOPK`` — coordinated top-k sparse updates; clients send only the
      selected coordinates, the switch dense-merges them with the plain
      integer kernel.

    ``QADD``/``TOPK`` therefore change nothing in the dataplane — the op
    tag exists so hosts choose the right codec and the overflow-recovery
    path computes corrected aggregates in the right arithmetic.
    """

    ADD = "add"
    FADD = "fadd"
    FMAX = "fmax"
    QADD = "qadd"
    TOPK = "topk"

    @classmethod
    def parse(cls, text: str) -> "AggOp":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(op.value for op in cls)
            raise ValueError(
                f"unknown agg op {text!r}; expected one of: {valid}"
            ) from None

    @property
    def is_float(self) -> bool:
        """Whether register contents are fp ordered encodings."""
        return self is AggOp.FADD or self is AggOp.FMAX


class ClearPolicy(enum.Enum):
    """How ``Map.clear`` reclaims accumulator state (paper §5.2.2)."""

    NOP = "nop"        # the application never clears
    COPY = "copy"      # server backs up, return stream clears
    SHADOW = "shadow"  # double-buffered registers, recirculating clear
    LAZY = "lazy"      # never clear; hosts subtract the saved baseline

    @classmethod
    def parse(cls, text: str) -> "ClearPolicy":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown clear policy {text!r}; expected one of: {valid}"
            ) from None


class ForwardTarget(enum.Enum):
    """Where CntFwd sends a packet once the threshold is reached."""

    SERVER = "server"  # continue to the server agent
    SRC = "src"        # bounce back to the sender (sub-RTT response)
    ALL = "all"        # multicast to every registered client

    @classmethod
    def parse(cls, text: str) -> "ForwardTarget":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(
                f"unknown CntFwd target {text!r}; expected one of: {valid}"
            ) from None


class RetryMode(enum.Enum):
    """Client behaviour when a CntFwd packet is intentionally dropped.

    ``PERSIST`` retransmits the same sequence number; the switch's
    flip-bit check keeps the counter idempotent and the eventual
    threshold-reached forward doubles as the ACK (voting, aggregation).
    ``FRESH`` issues a brand-new attempt after the retry timeout; each
    attempt increments the counter again, giving spin-lock (test&set)
    semantics.  The NetFilter defaults to FRESH when ``threshold == 1``.
    """

    PERSIST = "persist"
    FRESH = "fresh"

    @classmethod
    def parse(cls, text: str) -> "RetryMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown retry mode {text!r}; expected one of: {valid}"
            ) from None


@dataclass(frozen=True)
class CntFwdSpec:
    """Arguments of the CntFwd primitive (Table 2).

    ``threshold == 0`` disables counting: every packet forwards
    unconditionally to ``target`` (the common case for plain map access,
    e.g. the paper's query/monitor NetFilters).
    """

    target: ForwardTarget = ForwardTarget.SERVER
    threshold: int = 0
    key: str = "NULL"

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError(
                f"CntFwd threshold must be >= 0, got {self.threshold}")

    @cached_property
    def counts(self) -> bool:
        """Whether this spec actually counts (vs. unconditional forward)."""
        return self.threshold > 0

    @property
    def is_test_and_set(self) -> bool:
        return self.threshold == 1


@dataclass(frozen=True)
class RIPProgram:
    """A validated RIP configuration for one application.

    ``get_field``/``add_to_field`` name the protobuf fields whose values
    feed ``Map.get``/``Map.addTo`` (``None`` disables the primitive, the
    NetFilter spelling being ``"nop"``).
    """

    app_name: str
    precision: int = 0
    get_field: Optional[str] = None
    add_to_field: Optional[str] = None
    clear: ClearPolicy = ClearPolicy.NOP
    modify_op: StreamOp = StreamOp.NOP
    modify_para: int = 0
    cntfwd: CntFwdSpec = field(default_factory=CntFwdSpec)
    retry: RetryMode = RetryMode.PERSIST
    agg: AggOp = AggOp.ADD

    def __post_init__(self):
        if not self.app_name:
            raise ValueError("RIPProgram requires a non-empty app_name")
        if not 0 <= self.precision <= 9:
            raise ValueError(
                f"precision must be in [0, 9], got {self.precision}")
        if self.agg.is_float:
            # Fp registers hold ordered encodings: fixed-point scaling,
            # Stream.modify integer ops, and LAZY's baseline subtraction
            # are all meaningless on them.
            if self.precision > 0:
                raise ValueError(
                    f"agg={self.agg.value} carries its own float codec; "
                    f"precision must be 0, got {self.precision}")
            if self.modify_op is not StreamOp.NOP:
                raise ValueError(
                    f"agg={self.agg.value} cannot combine with "
                    f"Stream.modify ({self.modify_op.value}): the modify "
                    f"ALU is integer-only")
            if self.clear is ClearPolicy.LAZY:
                raise ValueError(
                    f"agg={self.agg.value} cannot use clear=lazy: hosts "
                    f"cannot subtract a baseline in table-fp arithmetic")

    # ------------------------------------------------------------------
    # Derived flags are read per packet (switch pipeline, host agents);
    # the program is frozen, so each resolves once and is then a plain
    # instance-dict read.  The same holds for ``CntFwdSpec.counts``.
    @cached_property
    def uses_get(self) -> bool:
        return self.get_field is not None

    @cached_property
    def uses_add_to(self) -> bool:
        return self.add_to_field is not None

    @cached_property
    def uses_map(self) -> bool:
        """Whether any primitive touches INC map registers.

        ``Map.clear`` counts: a clearing method must address the real
        registers of its keys even when it neither reads nor adds.
        """
        return (self.uses_get or self.uses_add_to or self.cntfwd.counts
                or self.clear is not ClearPolicy.NOP)

    @property
    def uses_floats(self) -> bool:
        return self.precision > 0

    def describe(self) -> str:
        """One-line human summary, used in controller logs."""
        parts = [f"app={self.app_name}", f"precision={self.precision}"]
        if self.agg is not AggOp.ADD:
            parts.append(f"agg={self.agg.value}")
        if self.uses_get:
            parts.append(f"get={self.get_field}")
        if self.uses_add_to:
            parts.append(f"addTo={self.add_to_field}")
        if self.clear is not ClearPolicy.NOP:
            parts.append(f"clear={self.clear.value}")
        if self.modify_op is not StreamOp.NOP:
            parts.append(f"modify={self.modify_op.value}({self.modify_para})")
        if self.cntfwd.counts:
            parts.append(f"cntfwd(to={self.cntfwd.target.value}, "
                         f"th={self.cntfwd.threshold})")
        else:
            parts.append(f"fwd={self.cntfwd.target.value}")
        return " ".join(parts)
