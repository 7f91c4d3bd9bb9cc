"""Switch register storage: the physical memory behind the INC map.

The paper's switch (§6.1) exposes 32 read-write memory *segments* — one
per key-value slot in a NetRPC packet — each holding 40K 32-bit units,
spread over 8 of the 12 pipeline stages with 4 register groups per
stage.  A physical address ``p`` maps to segment ``p % segments`` at
index ``p // segments``, so a run of 32 consecutive addresses touches
every segment exactly once (which is what lets a full packet be
processed in one pipeline pass).

The store follows the same layout: one *row* per register index, a list
holding that index across every segment.  A linear packet whose address
column is a row-aligned ``range`` is one row, so its ``Map.addTo`` /
``Map.get`` / ``Map.clear`` are column operations on one list instead of
a Python step per slot; every other block walks its slots one by one.

Overflow handling refines §5.2.1: instead of saturating the register
itself (which destroys the accumulated value), a 1-bit *sticky overflow
sidecar* is set and the register is left intact.  Reads of a sticky
register return the MAX_INT sentinel, so every downstream host detects
the overflow exactly as in the paper, while the pre-overflow total
remains recoverable by the control plane (see DESIGN.md §4.3).

Each register is the lo half of a paired register whose hi half is its
grant *generation* (DESIGN.md §4.1(5)): eviction bumps it, and an
access whose address word carries another one must not touch it.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Iterable, List, Optional, Tuple

from repro.protocol import (ADDR_BITS, ADDR_MASK, GENERATION_MASK, INT32_MAX,
                            INT32_MIN, KVBlock)

__all__ = ["RegisterFile"]


# The chip (§6.1): the map's segments spread over 8 pipeline stages with
# 4 register groups each; a configuration with more segments does not fit.
MAP_STAGES = 8
GROUPS_PER_STAGE = 4


class RegisterFile:
    """32-bit register memory with per-register sticky overflow bits."""

    def __init__(self, segments: int = 32, registers_per_segment: int = 40_000):
        if segments < 1 or registers_per_segment < 1:
            raise ValueError("segments and registers_per_segment must be >= 1")
        if segments > MAP_STAGES * GROUPS_PER_STAGE:
            raise ValueError(
                f"{segments} segments do not fit in {MAP_STAGES} stages x "
                f"{GROUPS_PER_STAGE} groups")
        if segments & (segments - 1):     # else a generation moves it
            raise ValueError(f"{segments} segments is not a power of two")
        self.segments = segments
        self.capacity = segments * registers_per_segment
        # Sparse rows: register ``p`` is ``_rows[p // segments][p %
        # segments]``.  A row exists once one of its registers was written
        # and goes away on a whole-row clear; absent rows read as zeros.
        self._rows: Dict[int, List[int]] = {}
        self._sticky_overflow: set = set()
        # Generation per evicted register: while empty, nothing checks.
        self.generations: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.capacity:
            raise IndexError(
                f"physical address {addr} out of range [0, {self.capacity})")

    def _get(self, addr: int) -> int:
        row = self._rows.get(addr // self.segments)
        return 0 if row is None else row[addr % self.segments]

    def _set(self, addr: int, value: int) -> None:
        index = addr // self.segments
        row = self._rows.get(index)
        if row is None:
            if not value:
                return
            row = self._rows[index] = [0] * self.segments
        row[addr % self.segments] = value

    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        """Map.get: returns the sentinel for sticky-overflowed registers."""
        self._check(addr)
        if addr in self._sticky_overflow:
            return INT32_MAX
        return self._get(addr)

    def read_raw(self, addr: int) -> int:
        """Control-plane read: the exact stored value, ignoring sticky bits."""
        if addr < 0 or addr >= self.capacity:      # CntFwd hot path
            self._check(addr)
        row = self._rows.get(addr // self.segments)
        return 0 if row is None else row[addr % self.segments]

    def add(self, addr: int, value: int) -> bool:
        """Map.addTo (a CntFwd counter).  Returns True when it overflowed.

        On overflow (including adds to an already-sticky register) the
        stored value is left unchanged and the sticky bit is set, so the
        packet's contribution must be replayed through the server agent.
        """
        # Hot path (CntFwd counters, once per packet): row access inlined.
        if addr < 0 or addr >= self.capacity:
            self._check(addr)
        if addr in self._sticky_overflow:
            return True
        index, slot = addr // self.segments, addr % self.segments
        row = self._rows.get(index)
        result = (0 if row is None else row[slot]) + value
        if result > INT32_MAX or result < INT32_MIN:
            self._sticky_overflow.add(addr)
            return True
        if row is None:
            row = self._rows[index] = [0] * self.segments
        row[slot] = result
        return False

    def write(self, addr: int, value: int) -> None:
        """Direct write (control plane / test&set reset paths)."""
        self._check(addr)
        self._sticky_overflow.discard(addr)
        self._set(addr, value)

    def clear(self, addr: int) -> None:
        """Map.clear: zero the register and reset its sticky bit."""
        self._check(addr)
        self._set(addr, 0)
        self._sticky_overflow.discard(addr)

    def selects(self, block, select: int, addr: int, base: int = 0) -> bool:
        """Whether a ``select``-ed slot of ``block`` holds register
        ``addr`` (local; the block carries global addresses)."""
        return block.selected_contains(addr + base, select)

    def is_sticky(self, addr: int) -> bool:
        self._check(addr)
        return addr in self._sticky_overflow

    # ------------------------------------------------------------------
    # Bulk kernels: the sanctioned batch API for the pipeline's fused
    # per-packet loops (one call per primitive per packet instead of one
    # method call per kv slot).  ``select`` is a bitmask over the block's
    # slots (typically ``block.mapped_mask & pkt.bitmap``); ``base`` is
    # the switch's position in the global physical address space — slots
    # whose translated address falls outside ``[0, capacity)`` belong to
    # another switch in the chain and are skipped, exactly like the old
    # per-kv ``_local`` test.  Each kernel mirrors the scalar method's
    # semantics bit for bit (see tests/switchsim/test_kvblock_kernels.py
    # for the differential proof).
    #
    # Whole-row path: a block whose address column is a ``range`` (dense
    # linear chunks, see KVBlock) that starts on a row boundary inside
    # the window and fits in that row, with every slot selected and no
    # sticky register anywhere, is one list operation on one row.  The
    # fact rides the column type; addresses are never re-scanned to find
    # it.  Everything else takes the per-slot ``_*_slots`` loops.
    # ------------------------------------------------------------------
    def _row_index(self, addrs: range, select: int,
                   base: int) -> Optional[int]:
        """Row that ``addrs`` (translated by ``-base``) covers from its
        first register, or None when the whole-row path does not apply.
        Callers test ``type(addrs) is range`` first, so that list blocks
        reach the per-slot loop with no call in between."""
        if self._sticky_overflow:
            return None
        count = len(addrs)
        segments = self.segments
        local = addrs.start - base
        if addrs.step != 1 or not 0 < count <= segments or \
                select != (1 << count) - 1 or local % segments or \
                not 0 <= local < self.capacity:
            return None
        return local // segments

    def _row_add(self, block, select: int, base: int) -> Optional[List[int]]:
        """Whole-row ``Map.addTo`` of ``block``: the sums, or None — with
        nothing written — when the row path does not apply or a sum
        leaves int32 (the per-slot path then applies the sticky semantics
        slot by slot)."""
        index = self._row_index(block.addrs, select, base)
        if index is None:
            return None
        rows = self._rows
        row = rows.get(index)
        values = block.values
        sums = list(values) if row is None else list(map(add, row, values))
        if max(sums) > INT32_MAX or min(sums) < INT32_MIN:
            return None
        count = len(sums)
        if count == self.segments:
            rows[index] = sums
        elif row is None:
            rows[index] = sums + [0] * (self.segments - count)
        else:
            row[:count] = sums
        return sums

    def add_block(self, block, select: int, base: int = 0) -> int:
        """Batch ``Map.addTo``: one :meth:`add` per selected in-window slot.

        Sticky or overflowing slots are not applied: they get the
        ``INT32_MAX`` sentinel written back into the block (the on-wire
        overflow mark) and their bits make up the returned mask — 0 when
        every slot was applied — which the pipeline reports in the packet.
        """
        if type(block.addrs) is range and \
                self._row_add(block, select, base) is not None:
            return 0
        return self._add_slots(block, select, base, False)

    def add_get_block(self, block, select: int, base: int = 0) -> int:
        """Fused ``Map.addTo`` + ``Map.get`` in one pass over the block.

        Only valid when the selected slots carry *distinct* addresses
        (guaranteed for linear-addressed packets, which use consecutive
        addresses): with duplicates, the two-pass kernels would return
        the final register value for every duplicate slot, while a fused
        pass would return partial sums.  Callers gate on
        ``pkt.linear_base is not None``.  Returns the mask of unapplied
        slots, as :meth:`add_block` does.
        """
        if type(block.addrs) is range:
            sums = self._row_add(block, select, base)
            if sums is not None:
                block.values[:] = sums
                return 0
        return self._add_slots(block, select, base, True)

    def _add_slots(self, block, select: int, base: int,
                   readback: bool) -> int:
        """Per-slot ``Map.addTo``, writing each sum back when ``readback``;
        returns the mask of unapplied slots."""
        addrs = block.addrs
        slot_values = block.values
        rows = self._rows
        get_row = rows.get
        segments = self.segments
        sticky = self._sticky_overflow
        capacity = self.capacity
        unapplied = 0
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    # `sticky and` keeps the empty-set steady state to a
                    # truthiness test; the membership check still guards
                    # duplicate addresses after a mid-packet overflow.
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        unapplied |= 1 << index
                        continue
                    row = get_row(local // segments)
                    if row is None:
                        row = rows[local // segments] = [0] * segments
                    slot = local % segments
                    result = row[slot] + slot_values[index]
                    if result > INT32_MAX or result < INT32_MIN:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        unapplied |= 1 << index
                    else:
                        row[slot] = result
                        if readback:
                            slot_values[index] = result
        return unapplied

    def get_block(self, block, select: int, base: int = 0) -> int:
        """Batch ``Map.get``: read each selected in-window slot's register.

        Sticky registers read as ``INT32_MAX``; returns the mask of the
        slots that read sticky (the packet-level overflow signal).
        """
        index = None if type(block.addrs) is not range else \
            self._row_index(block.addrs, select, base)
        if index is None:
            return self._get_slots(block, select, base)
        row = self._rows.get(index)
        count = len(block.values)
        block.values[:] = [0] * count if row is None else row[:count]
        return 0

    def _get_slots(self, block, select: int, base: int) -> int:
        addrs = block.addrs
        slot_values = block.values
        get_row = self._rows.get
        segments = self.segments
        sticky = self._sticky_overflow
        capacity = self.capacity
        sticky_slots = 0
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        sticky_slots |= 1 << index
                    else:
                        row = get_row(local // segments)
                        slot_values[index] = \
                            0 if row is None else row[local % segments]
        return sticky_slots

    def combine_block(self, block, select: int, base: int,
                      add_bits) -> int:
        """Batch ``Map.addTo`` in an op's arithmetic: ``add_bits(register,
        word) -> (word, overflowed)`` from the app's codec, sticky on
        overflow like :meth:`add`.

        :meth:`add_block` is this kernel specialised to the integer add
        (``Quantizer.add_bits``), slot for slot; other ops (the table fp
        add, the fp max) run here.  Unapplied slots get the ``INT32_MAX``
        sentinel written back (never a valid fp encoding) and make up the
        returned mask.
        """
        addrs = block.addrs
        slot_values = block.values
        sticky = self._sticky_overflow
        capacity = self.capacity
        unapplied = 0
        get, put = self._get, self._set
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        unapplied |= 1 << index
                        continue
                    result, overflowed = add_bits(get(local),
                                                  slot_values[index])
                    if overflowed:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        unapplied |= 1 << index
                    else:
                        put(local, result)
        return unapplied

    def clear_block(self, addrs: Iterable[int], select: int = -1,
                    offset: int = 0) -> None:
        """Batch ``Map.clear`` over ``addrs`` (plus ``offset``) per mask.

        ``select = -1`` clears every address.  Out-of-window addresses
        are skipped silently — the pipeline's return path and shadow
        clear both tolerate pairs owned by the other switch in a chain.
        """
        if select == -1:
            select = (1 << len(addrs)) - 1
        index = None if type(addrs) is not range else \
            self._row_index(addrs, select, -offset)
        if index is None:
            self._clear_slots(addrs, select, offset)
        elif len(addrs) == self.segments:
            self._rows.pop(index, None)
        elif index in self._rows:
            self._rows[index][:len(addrs)] = [0] * len(addrs)

    def _clear_slots(self, addrs: Iterable[int], select: int,
                     offset: int) -> None:
        get_row = self._rows.get
        segments = self.segments
        discard = self._sticky_overflow.discard
        capacity = self.capacity
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr + offset
                if 0 <= local < capacity:
                    row = get_row(local // segments)
                    if row is not None:
                        row[local % segments] = 0
                    discard(local)

    # ------------------------------------------------------------------
    def read_and_clear(self, addrs: Iterable[int]) -> List[Tuple[int, int, bool]]:
        """Control-plane eviction: (addr, exact value, was_sticky) triples."""
        out = []
        sticky = self._sticky_overflow
        addr_list = list(addrs)
        for addr in addr_list:
            self._check(addr)
            out.append((addr, self._get(addr), addr in sticky))
        self.clear_block(addr_list)
        return out

    def evict(self, addr: int) -> Tuple[int, int]:
        """Control-plane eviction: ``(exact value, new generation)``; the
        register is cleared and no earlier grant matches it again."""
        (_addr, value, _sticky), = self.read_and_clear([addr])
        generation = (self.generations.get(addr, 0) + 1) & GENERATION_MASK
        self.generations[addr] = generation
        return value, generation

    def untag(self, block, select: int, base: int) -> Tuple[KVBlock, int]:
        """``block`` with plain addresses (sharing its value column) and
        the mask of selected in-window slots whose address word carries
        another generation than the register's."""
        words = block.addrs
        generations, capacity = self.generations, self.capacity
        addrs = [word & ADDR_MASK for word in words]
        stale = 0
        for index, addr in enumerate(addrs):
            local = addr - base
            if select >> index & 1 and 0 <= local < capacity and \
                    generations.get(local, 0) != words[index] >> ADDR_BITS:
                stale |= 1 << index
        return KVBlock(addrs, block.values, block.mapped_mask,
                       block.keys), stale

    def occupied_addrs(self) -> List[int]:
        """Addresses of all non-zero registers (diagnostic snapshot)."""
        segments = self.segments
        return [index * segments + slot for index in sorted(self._rows)
                for slot, value in enumerate(self._rows[index]) if value]

    def power_cycle(self) -> None:
        """Reboot: register memory and sticky bits are volatile SRAM.
        Generations are kept: the server agent would rewrite them."""
        self._rows.clear()
        self._sticky_overflow.clear()
