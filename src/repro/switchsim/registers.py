"""Switch register storage: the physical memory behind the INC map.

The paper's switch (§6.1) exposes 32 read-write memory *segments* — one
per key-value slot in a NetRPC packet — each holding 40K 32-bit units,
spread over 8 of the 12 pipeline stages with 4 register groups per
stage.  A physical address ``p`` maps to segment ``p % segments`` at
index ``p // segments``, so a run of 32 consecutive addresses touches
every segment exactly once (which is what lets a full packet be
processed in one pipeline pass).

Overflow handling refines §5.2.1: instead of saturating the register
itself (which destroys the accumulated value), a 1-bit *sticky overflow
sidecar* is set and the register is left intact.  Reads of a sticky
register return the MAX_INT sentinel, so every downstream host detects
the overflow exactly as in the paper, while the pre-overflow total
remains recoverable by the control plane (see DESIGN.md §4.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.protocol import DEFAULT_FP_CODEC, INT32_MAX, INT32_MIN

__all__ = ["RegisterFile", "StageLayout"]


class StageLayout:
    """Maps memory segments onto pipeline stages and register groups.

    Purely structural — used to validate that a configuration fits the
    chip (``segments <= map_stages * groups_per_stage``) and to report
    resource usage.
    """

    def __init__(self, pipeline_stages: int = 12, map_stages: int = 8,
                 groups_per_stage: int = 4, segments: int = 32):
        if map_stages > pipeline_stages:
            raise ValueError("map stages cannot exceed pipeline stages")
        if segments > map_stages * groups_per_stage:
            raise ValueError(
                f"{segments} segments do not fit in {map_stages} stages x "
                f"{groups_per_stage} groups")
        self.pipeline_stages = pipeline_stages
        self.map_stages = map_stages
        self.groups_per_stage = groups_per_stage
        self.segments = segments

    def placement(self, segment: int) -> Tuple[int, int]:
        """(stage, group) hosting a given segment."""
        if not 0 <= segment < self.segments:
            raise ValueError(f"segment {segment} out of range")
        return segment // self.groups_per_stage, \
            segment % self.groups_per_stage


class RegisterFile:
    """32-bit register memory with per-register sticky overflow bits."""

    def __init__(self, segments: int = 32, registers_per_segment: int = 40_000,
                 layout: StageLayout = None):
        if segments < 1 or registers_per_segment < 1:
            raise ValueError("segments and registers_per_segment must be >= 1")
        self.segments = segments
        self.registers_per_segment = registers_per_segment
        self.capacity = segments * registers_per_segment
        self.layout = layout or StageLayout(segments=segments)
        # Sparse storage: zero registers dominate, a dict keeps memory sane
        # while still modelling the full 32 x 40K address space.
        self._values: Dict[int, int] = {}
        self._sticky_overflow: set = set()

    # ------------------------------------------------------------------
    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.capacity:
            raise IndexError(
                f"physical address {addr} out of range [0, {self.capacity})")

    def segment_of(self, addr: int) -> int:
        """Which memory segment (= packet kv slot) an address lives in."""
        self._check(addr)
        return addr % self.segments

    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        """Map.get: returns the sentinel for sticky-overflowed registers."""
        self._check(addr)
        if addr in self._sticky_overflow:
            return INT32_MAX
        return self._values.get(addr, 0)

    def read_raw(self, addr: int) -> int:
        """Control-plane read: the exact stored value, ignoring sticky bits."""
        if addr < 0 or addr >= self.capacity:      # CntFwd hot path
            self._check(addr)
        return self._values.get(addr, 0)

    def add(self, addr: int, value: int) -> bool:
        """Map.addTo.  Returns True when the add overflowed.

        On overflow (including adds to an already-sticky register) the
        stored value is left unchanged and the sticky bit is set, so the
        packet's contribution must be replayed through the server agent.
        """
        # Hot path (one call per mapped kv pair per packet): the bounds
        # check and saturating_add are inlined.
        if addr < 0 or addr >= self.capacity:
            self._check(addr)
        if addr in self._sticky_overflow:
            return True
        values = self._values
        result = values.get(addr, 0) + value
        if result > INT32_MAX or result < INT32_MIN:
            self._sticky_overflow.add(addr)
            return True
        if result:
            values[addr] = result
        else:
            values.pop(addr, None)
        return False

    def write(self, addr: int, value: int) -> None:
        """Direct write (control plane / test&set reset paths)."""
        self._check(addr)
        self._sticky_overflow.discard(addr)
        if value:
            self._values[addr] = value
        else:
            self._values.pop(addr, None)

    def clear(self, addr: int) -> None:
        """Map.clear: zero the register and reset its sticky bit."""
        self._check(addr)
        self._values.pop(addr, None)
        self._sticky_overflow.discard(addr)

    def is_sticky(self, addr: int) -> bool:
        self._check(addr)
        return addr in self._sticky_overflow

    # ------------------------------------------------------------------
    # Table floating point (agg=fadd / agg=fmax).  Registers hold
    # ordered fp encodings (see repro.protocol.fpcodec): 0 is +0.0, so a
    # cleared register is the fp additive identity, and the encodings
    # never reach INT32_MAX — the sticky-read sentinel stays unambiguous.
    # Sticky/overflow semantics mirror the integer :meth:`add` exactly:
    # on exponent overflow the stored value is preserved, the sticky bit
    # set, and the packet replays through the server agent.
    # ------------------------------------------------------------------
    def fadd(self, addr: int, ordered: int, codec=DEFAULT_FP_CODEC) -> bool:
        """Fp ``Map.addTo`` via the lookup-table add.  True on overflow."""
        if addr < 0 or addr >= self.capacity:
            self._check(addr)
        if addr in self._sticky_overflow:
            return True
        values = self._values
        result, overflowed = codec.add_bits(values.get(addr, 0), ordered)
        if overflowed:
            self._sticky_overflow.add(addr)
            return True
        if result:
            values[addr] = result
        else:
            values.pop(addr, None)
        return False

    def fmax(self, addr: int, ordered: int) -> bool:
        """Fp ``Map.addTo`` with max combine: plain integer max on the
        ordered encodings.  Cannot itself overflow, but adds to a sticky
        register still report True (the replay contract)."""
        if addr < 0 or addr >= self.capacity:
            self._check(addr)
        if addr in self._sticky_overflow:
            return True
        values = self._values
        result = values.get(addr, 0)
        if ordered > result:
            result = ordered
            if result:
                values[addr] = result
            else:
                values.pop(addr, None)
        return False

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
    # ------------------------------------------------------------------
    def add_block(self, block, select: int, base: int = 0) -> bool:
        """Batch ``Map.addTo``: one :meth:`add` per selected in-window slot.

        Sticky or overflowing slots get the ``INT32_MAX`` sentinel written
        back into the block (the on-wire overflow mark); the return value
        says whether any slot overflowed, so the caller can set the
        packet's ``is_of`` flag.
        """
        addrs = block.addrs
        slot_values = block.values
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        overflowed = False
        get = values.get
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
                        overflowed = True
                        continue
                    result = get(local, 0) + slot_values[index]
                    if result > INT32_MAX or result < INT32_MIN:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        overflowed = True
                    elif result:
                        values[local] = result
                    else:
                        values.pop(local, None)
        return overflowed

    def get_block(self, block, select: int, base: int = 0) -> bool:
        """Batch ``Map.get``: read each selected in-window slot's register.

        Sticky registers read as ``INT32_MAX``; returns whether any slot
        was sticky (the packet-level overflow signal).
        """
        addrs = block.addrs
        slot_values = block.values
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        overflowed = False
        get = values.get
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        overflowed = True
                    else:
                        slot_values[index] = get(local, 0)
        return overflowed

    def add_get_block(self, block, select: int, base: int = 0) -> bool:
        """Fused ``Map.addTo`` + ``Map.get`` in one pass over the block.

        Only valid when the selected slots carry *distinct* addresses
        (guaranteed for linear-addressed packets, which use consecutive
        addresses): with duplicates, the two-pass kernels would return
        the final register value for every duplicate slot, while a fused
        pass would return partial sums.  Callers gate on
        ``pkt.linear_base is not None``.
        """
        addrs = block.addrs
        slot_values = block.values
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        overflowed = False
        get = values.get
        if not sticky and select == (1 << len(addrs)) - 1:
            # Fast path for the steady state of a full linear packet:
            # every slot selected, no sticky registers anywhere — the
            # per-slot mask test and sticky membership test drop out.
            for index, addr in enumerate(addrs):
                local = addr - base
                if 0 <= local < capacity:
                    result = get(local, 0) + slot_values[index]
                    if result > INT32_MAX or result < INT32_MIN:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        overflowed = True
                    elif result:
                        values[local] = result
                        slot_values[index] = result
                    else:
                        values.pop(local, None)
                        slot_values[index] = 0
            return overflowed
        for index, addr in enumerate(addrs):
            if select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if local in sticky:
                        slot_values[index] = INT32_MAX
                        overflowed = True
                        continue
                    result = get(local, 0) + slot_values[index]
                    if result > INT32_MAX or result < INT32_MIN:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        overflowed = True
                    elif result:
                        values[local] = result
                        slot_values[index] = result
                    else:
                        values.pop(local, None)
                        slot_values[index] = 0
        return overflowed

    def fadd_block(self, block, select: int, base: int = 0,
                   codec=DEFAULT_FP_CODEC) -> bool:
        """Batch fp ``Map.addTo``: one :meth:`fadd` per selected slot.

        Mirrors :meth:`add_block` slot for slot — sticky/overflowing
        slots get the ``INT32_MAX`` sentinel written back (never a valid
        fp encoding), the return value drives the packet's ``is_of``.
        """
        addrs = block.addrs
        slot_values = block.values
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        overflowed = False
        get = values.get
        add_bits = codec.add_bits
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        overflowed = True
                        continue
                    result, slot_of = add_bits(get(local, 0),
                                               slot_values[index])
                    if slot_of:
                        sticky.add(local)
                        slot_values[index] = INT32_MAX
                        overflowed = True
                    elif result:
                        values[local] = result
                    else:
                        values.pop(local, None)
        return overflowed

    def fmax_block(self, block, select: int, base: int = 0) -> bool:
        """Batch fp max-combine: integer max over ordered encodings.

        Same sticky contract as :meth:`fadd_block`; the max itself can
        never overflow, so only pre-existing sticky slots report.
        """
        addrs = block.addrs
        slot_values = block.values
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        overflowed = False
        get = values.get
        full = select == (1 << len(addrs)) - 1
        for index, addr in enumerate(addrs):
            if full or select >> index & 1:
                local = addr - base
                if 0 <= local < capacity:
                    if sticky and local in sticky:
                        slot_values[index] = INT32_MAX
                        overflowed = True
                        continue
                    ordered = slot_values[index]
                    current = get(local, 0)
                    if ordered > current:
                        if ordered:
                            values[local] = ordered
                        else:
                            values.pop(local, None)
        return overflowed

    def clear_block(self, addrs: Iterable[int], select: int = -1,
                    offset: int = 0) -> None:
        """Batch ``Map.clear`` over ``addrs`` (plus ``offset``) per mask.

        ``select = -1`` clears every address.  Out-of-window addresses
        are skipped silently — the pipeline's return path and shadow
        clear both tolerate pairs owned by the other switch in a chain.
        """
        values = self._values
        sticky = self._sticky_overflow
        capacity = self.capacity
        pop = values.pop
        discard = sticky.discard
        if select == -1 or select == (1 << len(addrs)) - 1:
            for addr in addrs:
                local = addr + offset
                if 0 <= local < capacity:
                    pop(local, None)
                    discard(local)
            return
        for index, addr in enumerate(addrs):
            if select >> index & 1:
                local = addr + offset
                if 0 <= local < capacity:
                    pop(local, None)
                    discard(local)

    # ------------------------------------------------------------------
    def read_and_clear(self, addrs: Iterable[int]) -> List[Tuple[int, int, bool]]:
        """Control-plane eviction: (addr, exact value, was_sticky) triples."""
        out = []
        values = self._values
        sticky = self._sticky_overflow
        addr_list = list(addrs)
        for addr in addr_list:
            self._check(addr)
            out.append((addr, values.get(addr, 0), addr in sticky))
        self.clear_block(addr_list)
        return out

    @property
    def occupied(self) -> int:
        """Number of non-zero registers (diagnostic)."""
        return len(self._values)

    def occupied_addrs(self) -> List[int]:
        """Addresses of all non-zero registers (diagnostic snapshot)."""
        return sorted(self._values)

    def power_cycle(self) -> None:
        """Reboot: register memory and sticky bits are volatile SRAM."""
        self._values.clear()
        self._sticky_overflow.clear()
