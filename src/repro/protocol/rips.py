"""Reliable INC Primitive (RIP) programs.

A :class:`RIPProgram` is the compiled form of a user's NetFilter file
(paper §4, Figure 3): which of the five primitives are enabled and with
what arguments.  The same object is consumed by three parties:

* the RPC layer, to know which message fields feed the INC data stream;
* the switch pipeline, to drive per-packet processing (Figure 15);
* the host agents, to execute the identical semantics in software on
  the fallback path.

The last two run it through one :func:`apply`.  Parsing of the
user-facing JSON lives in :mod:`repro.core.netfilter`; this module only
holds the validated, network-facing representation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .arith import Quantizer, saturating_add
from .fpcodec import DEFAULT_FMAX_CODEC, DEFAULT_FP_CODEC
from .ops import StreamOp

__all__ = [
    "AggOp",
    "ClearPolicy",
    "ForwardTarget",
    "RetryMode",
    "CntFwdSpec",
    "RIPProgram",
    "apply",
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
    tag exists so hosts choose the right codec.  The arithmetic of every
    op lives in its codec (:attr:`RIPProgram.codec`).
    """

    ADD = "add"
    FADD = "fadd"
    FMAX = "fmax"
    QADD = "qadd"
    TOPK = "topk"

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


class ForwardTarget(enum.Enum):
    """Where CntFwd sends a packet once the threshold is reached."""

    SERVER = "server"  # continue to the server agent
    SRC = "src"        # bounce back to the sender (sub-RTT response)
    ALL = "all"        # multicast to every registered client


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

    @cached_property
    def codec(self):
        """The value codec: the wire format and the op's arithmetic.

        Fp aggregations carry ordered fp encodings — the shared table-fp
        codec for agg=fadd, its biased variant for agg=fmax (a cleared
        register must sit below every value there).  Everything else
        keeps the paper's fixed-point :class:`Quantizer`.  All three
        expose the same ``encode``/``decode`` surface (and the
        whole-tensor ``encode_many``/``decode_many``) the RPC layer codes
        against, and the same arithmetic surface the switch and the
        software executor run: ``add_bits``, ``exact_add`` and
        ``exact_word`` (DESIGN.md §4.8).
        """
        if self.agg is AggOp.FADD:
            return DEFAULT_FP_CODEC
        if self.agg is AggOp.FMAX:
            return DEFAULT_FMAX_CODEC
        return Quantizer(self.precision)

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
    def replies(self) -> bool:
        """Whether a call gets a result back (Map.get, or CntFwd's)."""
        return self.uses_get or self.cntfwd.counts

    @cached_property
    def uses_map(self) -> bool:
        """Whether any primitive touches INC map registers.

        ``Map.clear`` counts: a clearing method must address the real
        registers of its keys even when it neither reads nor adds.
        """
        return (self.uses_get or self.uses_add_to or self.cntfwd.counts
                or self.clear is not ClearPolicy.NOP)


def apply(program: RIPProgram, store, block, select: int, base: int = 0,
          counter=None, retrans: bool = False, edge: bool = True,
          fuse: bool = False, observe=None):
    """One packet's RIP semantics (Figure 15) over an INC map store: the
    switch's register file or the server's software map, which share the
    register file's block kernels and counter calls.

    ``select`` masks the slots the store holds, ``base`` places it in
    the address space, ``counter`` is its handle on the packet's CntFwd
    counter (None: none here).  A retransmission (``retrans``) changes
    no state but reads; only the edge switch (``edge``) modifies and
    counts; ``fuse`` admits the fused add+get kernel (distinct, linear
    addresses); ``observe(select, kernel)`` sees each kernel batch.
    Returns ``(target, mask, overflow, count)``: the ``ForwardTarget``
    (None: CntFwd absorbs it), the slots the add refused (a
    retransmission's: those read sticky), whether anything overflowed,
    Stream.modify included, and the count (None: not counted).
    """
    overflow = False
    if edge and program.modify_op is not StreamOp.NOP:
        overflow = block.modify(program.modify_op, program.modify_para,
                                select)
    mask = 0
    if select:
        # All adds before all gets: duplicate addresses read the sum.
        do_add = program.uses_add_to and not retrans
        add_bits = program.codec.add_bits
        unapplied = sticky = 0
        if do_add and program.uses_get and fuse and \
                add_bits is saturating_add:
            unapplied = store.add_get_block(block, select, base)
            if observe is not None:
                observe(select, "add_get")
        else:
            if do_add:
                unapplied = store.add_block(block, select, base) \
                    if add_bits is saturating_add else \
                    store.combine_block(block, select, base, add_bits)
                if observe is not None:
                    observe(select, "add")
            if program.uses_get:
                sticky = store.get_block(block, select, base)
                if observe is not None:
                    observe(select, "get")
        if unapplied or sticky:
            overflow = True
            mask = unapplied if do_add else sticky
    if not edge:
        return ForwardTarget.SERVER, mask, overflow, None

    spec = program.cntfwd
    target = spec.target
    # Copy policy: a result, or a clearing method's packet, detours
    # through the server for backup; its clearing return stream reaches
    # the real target (Figure 5's black arrows).
    detour = program.clear is ClearPolicy.COPY and \
        target is not ForwardTarget.SERVER
    if counter is None:
        if detour and select:
            target = ForwardTarget.SERVER
        return target, mask, overflow, None
    # A counter among the packet's own slots was incremented by its
    # Map.addTo (§5.2.3); a side counter (a linear packet's always), or
    # an fp register (which holds encodings, never counts), takes the
    # extra add.
    if not retrans and not (
            program.uses_add_to and not program.agg.is_float and not fuse
            and store.selects(block, select, counter, base)):
        store.add(counter, 1)
    count = store.read_raw(counter)
    threshold = spec.threshold
    if count == threshold:
        if threshold > 1:
            # Multi-party rounds re-arm; test&set (threshold 1) holds
            # until an explicit clear releases it.
            store.write(counter, 0)
        return (ForwardTarget.SERVER if detour else target), mask, \
            overflow, count
    if retrans and threshold > 1 and count == 0:
        # The round fired while this copy's first trip waited.  Copy: the
        # trigger to the server was lost, or its return is in flight (the
        # server dedups; its reliable return heals).  Otherwise the
        # aggregate is still readable: bounce what Map.get just read.
        return (ForwardTarget.SERVER if program.clear is ClearPolicy.COPY
                else ForwardTarget.SRC), mask, overflow, count
    return None, mask, overflow, count
