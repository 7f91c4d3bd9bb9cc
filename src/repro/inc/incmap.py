"""The software INC map: the host agents' fallback executor (§3.2, §5.2.1).

Host agents "emulate all switch operations in software and thus can
always provide correct INC results to the RPCLayer regardless of the
switch's ability or resource".  This class implements the five RIPs
exactly, in one application's aggregation arithmetic, keyed by the
application's original keys, and is used for:

* keys without a physical mapping (cache misses / collisions);
* overflow recovery (exact re-execution of clamped packets);
* deployments with no programmable switch at all.

The arithmetic is the app's codec's (``RIPProgram.codec``): each entry
holds an exact total — a 64-bit integer sum (no saturation), a float64
sum of decoded fp words, or the largest fp max word — which ``exact_add``
accumulates and ``exact_word`` reads back as a wire word.  An absent
entry is 0 in every arithmetic, like a cleared register.

It is also the reference model property-based tests compare the switch
dataplane against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.protocol import StreamOp, apply_stream_op

__all__ = ["SoftwareINCMap"]


class SoftwareINCMap:
    """Exact software implementation of the INC map primitives."""

    def __init__(self, codec):
        self._values: Dict[Any, Any] = {}
        self._counters: Dict[Any, int] = {}
        self._add = codec.exact_add
        self._word = codec.exact_word

    # ------------------------------------------------------------------
    # Map primitives (Table 2 semantics, exact arithmetic)
    # ------------------------------------------------------------------
    def add_to(self, key: Any, word: int) -> Any:
        """Map.addTo: accumulate; returns the new exact total."""
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

    def modify(self, op: StreamOp, values: Iterable[int], para: int
               ) -> List[int]:
        """Stream.modify applied to a value stream (no map access)."""
        return [apply_stream_op(op, v, para)[0] for v in values]

    def count_forward(self, key: Any, threshold: int) -> bool:
        """CntFwd: increment and report whether the threshold was reached.

        Mirrors the switch semantics: exact-equality comparison, and
        multi-party counters (threshold > 1) re-arm on a hit while
        test&set counters persist until cleared.
        """
        if threshold <= 0:
            return True
        count = self._counters.get(key, 0) + 1
        self._counters[key] = count
        if count == threshold:
            if threshold > 1:
                self._counters[key] = 0
            return True
        return False

    def counter(self, key: Any) -> int:
        """The CntFwd counter (0 for absent keys, like a cleared one)."""
        return self._counters.get(key, 0)

    def clear_counter(self, key: Any) -> int:
        return self._counters.pop(key, 0)

    # ------------------------------------------------------------------
    # bulk helpers used by the server agent
    # ------------------------------------------------------------------
    def drain(self) -> Dict[Any, Any]:
        """Remove and return every exact total (second-level timeout)."""
        values, self._values = self._values, {}
        return values

    def snapshot(self) -> Dict[Any, Any]:
        """A copy of every exact total."""
        return dict(self._values)
