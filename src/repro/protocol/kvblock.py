"""Columnar kv payload: the packet's data section as parallel columns.

The paper's headline numbers come from the switch processing all 32 kv
slots of a packet in one pipeline pass (Fig. 14, §5.2.3).  Modelling
that payload as 32 per-slot row objects made every multicast,
retransmission, and server return pay 32 object constructions and every
pipeline primitive pay 32 rounds of attribute chasing.  :class:`KVBlock`
stores the same data as parallel columns:

* ``addrs``  — a list of address words (a mapped slot's grant, see
  ``packets.ADDR_BITS``; logical otherwise), or a step-1 ``range``;
* ``values`` — a list of int32 slot values, like the task columns and
  register rows it is copied from and into (no boundary boxes an int);
* ``mapped_mask`` — an int bitmask, bit *i* set when slot *i* carries a
  granted physical address;
* ``keys``   — a side sequence of opaque application keys (a list, or a
  step-1 ``range`` of array indices), or ``None`` when every key is
  ``None``.

A dense linear chunk carries ``range`` addresses and keys end to end;
the register file takes such a block as one row by the column type
alone.

**Read-only columns.**  ``addrs`` and ``keys`` are never written in
place — not by the switch, not by the agents, not by a copy's owner —
and are assigned only when a block is built.  Only ``values`` is
rewritten (the switch's in-network computation).  So a copy shares the
two read-only columns and duplicates just the value buffer
(:meth:`KVBlock.copy`): a retransmission pays one C-level slice, not
three: the copy-on-write payload sharing that ns-3's ``Packet::Copy``
does, for the same reason.  A switch multicast shares more: its group
packet's block, value column frozen to a tuple, goes to every directly
attached receiver of the group, and receivers only read it.  Hand
:meth:`from_columns` a key list nobody will append to afterwards.

Slot access from the batch kernels
(:meth:`~repro.switchsim.registers.RegisterFile.add_block` and friends)
is index arithmetic on the columns.  Slots are read and written through
the columns (``pkt.kv.values[0]``); there is no per-slot row object.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from .ops import StreamOp, apply_stream_op

__all__ = ["KVBlock"]

_new = object.__new__


class KVBlock:
    """Columnar storage for a packet's kv slots (up to 32 of them)."""

    __slots__ = ("addrs", "values", "mapped_mask", "keys")

    def __init__(self, addrs: Optional[Sequence[int]] = None,
                 values: Optional[List[int]] = None,
                 mapped_mask: int = 0,
                 keys: Optional[Sequence[Any]] = None):
        self.addrs = addrs if addrs is not None else []
        self.values = values if values is not None else []
        self.mapped_mask = mapped_mask
        self.keys = keys

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, addrs: Iterable[int], values: Iterable[int],
                     mapped_mask: int = 0,
                     keys: Optional[Sequence[Any]] = None) -> "KVBlock":
        """Build directly from columns (no per-slot object traffic).

        ``mapped_mask`` of ``-1`` selects every slot.  A ``range`` of
        addresses is kept as it is; ``keys`` is kept by reference (it is
        read-only from here on).
        """
        # Built slot by slot, without the __init__ hop: one block per
        # chunk on every send path.
        block = _new(cls)
        block.addrs = addr_col = \
            addrs if type(addrs) is range else list(addrs)
        block.values = list(values)
        block.mapped_mask = mapped_mask if mapped_mask >= 0 \
            else (1 << len(addr_col)) - 1
        block.keys = keys
        return block

    # ------------------------------------------------------------------
    # size
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.addrs)

    # ------------------------------------------------------------------
    # bulk operations (the packet-copy / kernel fast paths)
    # ------------------------------------------------------------------
    def copy(self) -> "KVBlock":
        """Duplicate the value column; share the read-only ones."""
        dup = _new(KVBlock)
        dup.addrs = self.addrs
        dup.values = self.values[:]
        dup.mapped_mask = self.mapped_mask
        dup.keys = self.keys
        return dup

    @property
    def any_mapped(self) -> bool:
        return self.mapped_mask != 0

    def selected_contains(self, addr: int, select: int) -> bool:
        """Whether any ``select``-ed slot carries ``addr``.

        The full-selection case (the common one: every slot mapped and
        bitmap-selected) is a single C-level membership test.
        """
        addrs = self.addrs
        if select == (1 << len(addrs)) - 1:
            return addr in addrs
        for index, slot_addr in enumerate(addrs):
            if slot_addr == addr and select >> index & 1:
                return True
        return False

    def modify(self, op: StreamOp, para: int, select: int) -> bool:
        """Batch ``Stream.modify`` over the selected slots.

        Applies ``op`` in slot order (identical to the old per-kv loop)
        and returns whether any slot overflowed int32.
        """
        values = self.values
        overflowed = False
        for index in range(len(values)):
            if select >> index & 1:
                values[index], of = apply_stream_op(op, values[index], para)
                if of:
                    overflowed = True
        return overflowed

    def values_list(self) -> List[int]:
        """Plain-list snapshot of the value column."""
        return list(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<KVBlock n={len(self.addrs)} "
                f"mapped={self.mapped_mask:#x} "
                f"keys={'yes' if self.keys is not None else 'no'}>")
