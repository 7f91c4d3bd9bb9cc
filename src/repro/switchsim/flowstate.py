"""Per-flow retransmission state: the flip-bit bitmap protocol (§5.1).

The switch keeps one bit array of ``w_max`` bits per reliable flow,
initialised to all ones.  A packet carries ``flip = (seq // w_max) % 2``;
the switch compares the ``seq % w_max``-th bit against the flip:

* bit == flip  ->  the packet was seen before (retransmission); skip all
  state-changing primitives;
* bit != flip  ->  first appearance; store the flip and process fully.

The sender-side window invariant (packet *i* of window *t* is sent only
after packet *i* of window *t-1* is ACKed) makes this exact — the
induction proof is in §5.1 and is checked by property-based tests.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["FlowStateTable"]


class FlowStateTable:
    """SRRT slot -> ``w_max``-bit array, packed into Python ints."""

    def __init__(self, slots: int = 1024, w_max: int = 256):
        if slots < 1:
            raise ValueError("need at least one flow slot")
        if w_max < 1:
            raise ValueError("w_max must be >= 1")
        self.slots = slots
        self.w_max = w_max
        self._all_ones = (1 << w_max) - 1
        self._bits: Dict[int, int] = {}
        self._next_slot = 0

    def allocate(self) -> int:
        """Hand out the next free SRRT slot (controller connection setup)."""
        if self._next_slot >= self.slots:
            raise RuntimeError(
                f"all {self.slots} reliable-flow slots are in use")
        slot = self._next_slot
        self._next_slot += 1
        self._bits[slot] = self._all_ones
        return slot

    def check_and_update(self, slot: int, seq: int, flip: int) -> bool:
        """Returns True when the packet is a retransmission.

        First appearances store the packet's flip bit into the array.
        """
        if seq < 0:
            raise ValueError("sequence numbers are non-negative")
        if flip not in (0, 1):
            raise ValueError(f"flip must be 0 or 1, got {flip}")
        index = seq % self.w_max
        bits = self._bits.get(slot, self._all_ones)
        current = bits >> index & 1
        if current == flip:
            return True
        if flip:
            bits |= 1 << index
        else:
            bits &= ~(1 << index)
        self._bits[slot] = bits
        return False

    @property
    def next_slot(self) -> int:
        """Allocator position (the chaos invariants check it survives a
        reboot; slot handout is bump-only)."""
        return self._next_slot

    def clear_state(self) -> None:
        """Reboot: every allocated slot reverts to all-ones.

        The allocator position survives — slot numbers are handed out by
        the controller and must stay consistent across every switch on
        the path, so a reboot may lose the *bits* but not the slot map.
        """
        ones = self._all_ones
        for slot in self._bits:
            self._bits[slot] = ones

    def restore(self, slot: int, bits: int) -> None:
        """Controller resync: overwrite one slot's bit array wholesale.

        Used on the failover path to rebuild retransmission state from
        the live senders after :meth:`clear_state` (see
        ``ReliableFlow.flip_resync_bits``).
        """
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range [0, {self.slots})")
        self._bits[slot] = bits & self._all_ones
