"""The software INC map: the host agents' fallback store (§3.2, §5.2.1).

Host agents "emulate all switch operations in software", and here the
emulation is the switch's own: the server agent runs
:func:`repro.protocol.apply` over this store — for unmapped or collided
keys, overflow recovery and deployments with no programmable switch.
It takes the register file's block kernels and CntFwd counter calls,
but where registers are 32-bit, sticky and addressed physically, this
store is exact and keyed by ``block.keys``: no slot is ever refused.
Each entry is an exact total in the app's codec (``RIPProgram.codec``):
``exact_add`` accumulates a 64-bit integer sum, a float64 sum of
decoded fp words or the largest fp max word, and ``exact_word`` reads
it back as a wire word.  A CntFwd counter is an integer entry: a keyed
app counts in the key's own entry, as the switch in the key's
register, a linear app on a key of its own.  An absent entry is 0 in
every arithmetic, like a cleared register.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

__all__ = ["SoftwareINCMap"]


class SoftwareINCMap:
    """Exact software implementation of the INC map primitives."""

    def __init__(self, codec):
        self._values: Dict[Any, Any] = {}
        self._add = codec.exact_add
        self._word = codec.exact_word

    # ------------------------------------------------------------------
    # The store ``protocol.apply`` runs on (``base`` places a register
    # window and means nothing here; the server never fuses add+get).
    # ------------------------------------------------------------------
    def add_block(self, block, select: int, base: int = 0) -> int:
        """Map.addTo of the selected slots; returns 0 (none refused)."""
        values, add = self._values, self._add
        get = values.get
        words = block.values
        full = select == (1 << len(words)) - 1
        for index, key in enumerate(block.keys):
            if full or select >> index & 1:
                values[key] = add(get(key, 0), words[index])
        return 0

    def combine_block(self, block, select: int, base: int,
                      add_bits) -> int:
        """Map.addTo of another op: the same exact arithmetic."""
        return self.add_block(block, select)

    def get_block(self, block, select: int, base: int = 0) -> int:
        """Map.get of the selected slots into ``block.values``."""
        get, word = self._values.get, self._word
        words = block.values
        full = select == (1 << len(words)) - 1
        for index, key in enumerate(block.keys):
            if full or select >> index & 1:
                words[index] = word(get(key, 0))
        return 0

    def selects(self, block, select: int, key: Any, base: int = 0) -> bool:
        """Whether a ``select``-ed slot of ``block`` holds ``key``."""
        return any(slot_key == key and select >> index & 1
                   for index, slot_key in enumerate(block.keys))

    def add(self, key: Any, value: int) -> bool:
        """A CntFwd counter's integer add; never overflows (False)."""
        self._values[key] = self._values.get(key, 0) + value
        return False

    def read_raw(self, key: Any) -> Any:
        """An entry's exact total (a CntFwd count)."""
        return self._values.get(key, 0)

    def write(self, key: Any, value: int) -> None:
        """Set an entry (a CntFwd counter's re-arm)."""
        self._values[key] = value

    def clear_block(self, keys: Iterable[Any], select: int) -> None:
        """Map.clear of the ``select``-ed keys."""
        pop = self._values.pop
        for index, key in enumerate(keys):
            if select >> index & 1:
                pop(key, None)

    # ------------------------------------------------------------------
    # The server agent's own reads and writes
    # ------------------------------------------------------------------
    def add_to(self, key: Any, word: int) -> Any:
        """Fold a word in (an evicted register); returns the new total."""
        total = self._add(self._values.get(key, 0), word)
        self._values[key] = total
        return total

    def get(self, key: Any) -> int:
        """Map.get: the total as a wire word (0 for absent keys)."""
        return self._word(self._values.get(key, 0))

    def get_with(self, key: Any, register: int) -> int:
        """Map.get of the total with a switch register's word folded in
        (the register keeps its value)."""
        return self._word(self._add(self._values.get(key, 0), register))

    def clear(self, key: Any) -> int:
        """Map.clear: drop the entry; returns its word."""
        return self._word(self._values.pop(key, 0))

    def drain(self) -> Dict[Any, Any]:
        """Remove and return every exact total (second-level timeout)."""
        values, self._values = self._values, {}
        return values

    def snapshot(self) -> Dict[Any, Any]:
        """A copy of every exact total."""
        return dict(self._values)
