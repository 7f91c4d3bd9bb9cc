"""The software INC map: the host agents' fallback executor (§3.2, §5.2.1).

Host agents "emulate all switch operations in software and thus can
always provide correct INC results to the RPCLayer regardless of the
switch's ability or resource".  This class implements the five RIPs
over 64-bit integers (no saturation), keyed by the application's
original keys, and is used for:

* keys without a physical mapping (cache misses / collisions);
* overflow recovery (exact re-execution of clamped packets);
* deployments with no programmable switch at all.

It is also the reference model property-based tests compare the switch
dataplane against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.protocol import DEFAULT_FP_CODEC, StreamOp, apply_stream_op

__all__ = ["SoftwareINCMap"]


class SoftwareINCMap:
    """Exact software implementation of the INC map primitives."""

    def __init__(self):
        self._values: Dict[Any, int] = {}
        self._counters: Dict[Any, int] = {}
        # Fp entries (agg=fadd/fmax) accumulate in float64 — the software
        # path is the *exact* executor, strictly better than the switch's
        # table arithmetic; reads re-encode for the wire.
        self._floats: Dict[Any, float] = {}

    # ------------------------------------------------------------------
    # Map primitives (Table 2 semantics, unbounded precision)
    # ------------------------------------------------------------------
    def add_to(self, key: Any, value: int) -> int:
        """Map.addTo: accumulate; returns the new total."""
        total = self._values.get(key, 0) + value
        self._values[key] = total
        return total

    def get(self, key: Any) -> int:
        """Map.get: read (0 for absent keys, like a cleared register)."""
        return self._values.get(key, 0)

    def clear(self, key: Any) -> int:
        """Map.clear: zero the entry; returns the value it held."""
        return self._values.pop(key, 0)

    def modify(self, op: StreamOp, values: Iterable[int], para: int
               ) -> List[int]:
        """Stream.modify applied to a value stream (no map access)."""
        return [apply_stream_op(op, v, para)[0] for v in values]

    def fadd_to(self, key: Any, ordered: int,
                codec=DEFAULT_FP_CODEC) -> float:
        """Fp Map.addTo: decode the wire encoding, accumulate in float64."""
        total = self._floats.get(key, 0.0) + codec.decode(ordered)
        self._floats[key] = total
        return total

    def fmax_to(self, key: Any, ordered: int,
                codec=DEFAULT_FP_CODEC) -> float:
        """Fp max-combine over the float64 shadow value.

        An absent key is the max *identity* (first contribution wins
        outright) — not 0.0, which would floor negative maxima.
        """
        value = codec.decode(ordered)
        if key not in self._floats or value > self._floats[key]:
            self._floats[key] = value
        return self._floats[key]

    def fget(self, key: Any, codec=DEFAULT_FP_CODEC) -> int:
        """Fp Map.get: the accumulated float re-encoded for the wire.

        Absent keys read as raw 0 — exactly what a cleared switch
        register reads as under either fp codec.
        """
        if key not in self._floats:
            return 0
        ordered, _ = codec.encode(self._floats[key])
        return ordered

    def fclear(self, key: Any) -> float:
        """Fp Map.clear: drop the entry; returns the float it held."""
        return self._floats.pop(key, 0.0)

    def fvalue(self, key: Any) -> float:
        """The accumulated float itself (no re-encoding; recovery math)."""
        return self._floats.get(key, 0.0)

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
    def merge_register(self, key: Any, register_value: int) -> int:
        """Fold an evicted switch register into the software total."""
        return self.add_to(key, register_value)

    def drain(self) -> Dict[Any, int]:
        """Remove and return every entry (second-level timeout path)."""
        values, self._values = self._values, {}
        return values

    def snapshot(self) -> Dict[Any, int]:
        return dict(self._values)
