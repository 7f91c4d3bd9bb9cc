"""The flight recorder: per-packet lifecycle spans in a bounded ring.

Every layer of the simulated dataplane (links, hosts, the switch
pipeline, the reliable transport, the controller) records what it is
doing *when tracing is enabled* — as compact tuples pushed into a
fixed-capacity ring buffer, the flight-recorder pattern: cheap enough
to leave armed for a whole experiment, bounded so a pathological run
cannot eat the heap, and always holding the most recent window of
activity when something goes wrong.

Zero-overhead-when-disabled contract
------------------------------------
The process-wide singleton :data:`TRACE` is consulted on hot paths as

    if TRACE.enabled:
        TRACE.record(...)

so the disabled path costs exactly one attribute load and a falsy
branch per site.  Recording never schedules simulator events and never
draws from any RNG: enabling tracing changes *nothing* about a run
except wall time — every golden determinism pin (event counts, chaos
fingerprints, sweep merges) holds bit-identically with tracing on.

Record shape
------------
Each record is a tuple ``(epoch, kind, start, end, where, args)``:

* ``epoch`` — ordinal of the simulator the record belongs to (several
  sequential runs share one process; each ``Simulator`` bumps the epoch
  when tracing is on, so timestamps never interleave across runs);
* ``kind`` — dotted span name, e.g. ``"link.serialize"`` (the span
  taxonomy is documented in DESIGN.md §"Observability");
* ``start`` / ``end`` — simulated seconds; ``end is None`` marks an
  instant event rather than a duration span;
* ``where`` — the component track (link/host/switch/flow name);
* ``args`` — a small tuple of span-specific values, or ``None``.

This module deliberately imports nothing from the rest of the package
so every layer can import it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FlightRecorder", "TRACE", "DEFAULT_CAPACITY"]

# 2**18 records ~= a few seconds of a fast=True experiment; at six
# machine words per tuple the armed recorder tops out around 20 MB.
DEFAULT_CAPACITY = 1 << 18

Record = Tuple[int, str, float, Optional[float], str, Optional[tuple]]


class FlightRecorder:
    """Bounded ring buffer of trace records with a process-wide switch."""

    __slots__ = ("enabled", "capacity", "epoch", "total", "counts",
                 "_buf", "_next", "__weakref__")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.enabled = False
        self.capacity = capacity
        self.epoch = 0
        self.total = 0
        self.counts: Dict[str, int] = {}
        self._buf: List[Optional[Record]] = []
        self._next = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, capacity: Optional[int] = None) -> None:
        """Arm the recorder (fresh buffer; previous records discarded)."""
        if capacity is not None:
            if capacity < 1:
                raise ValueError("capacity must be >= 1")
            self.capacity = capacity
        self._buf = [None] * self.capacity
        self._next = 0
        self.total = 0
        self.epoch = 0
        self.counts = {}
        self.enabled = True

    def stop(self) -> None:
        """Disarm; recorded data stays readable for export."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all records and release the buffer."""
        self.enabled = False
        self._buf = []
        self._next = 0
        self.total = 0
        self.epoch = 0
        self.counts = {}

    def begin_epoch(self) -> int:
        """Advance the run epoch (called by each new ``Simulator``)."""
        self.epoch += 1
        return self.epoch

    # ------------------------------------------------------------------
    # recording (hot path only when enabled)
    # ------------------------------------------------------------------
    def record(self, kind: str, start: float, end: Optional[float],
               where: str, args: Optional[tuple] = None) -> None:
        """Push one span/instant record; oldest record evicted when full."""
        buf = self._buf
        if not buf:           # record() before start(): arm lazily
            self.start()
            buf = self._buf
        i = self._next
        buf[i] = (self.epoch, kind, start, end, where, args)
        i += 1
        self._next = 0 if i == self.capacity else i
        self.total += 1
        counts = self.counts
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1

    def instant(self, kind: str, when: float, where: str,
                args: Optional[tuple] = None) -> None:
        self.record(kind, when, None, where, args)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records evicted by ring wrap-around (oldest-first)."""
        return max(0, self.total - self.capacity)

    def records(self) -> List[Record]:
        """Surviving records in insertion order (oldest first)."""
        if self.total < self.capacity:
            return list(self._buf[:self._next])
        return list(self._buf[self._next:]) + list(self._buf[:self._next])

    def records_by_epoch(self) -> Dict[int, List[Record]]:
        """Surviving records bucketed by epoch, insertion order kept.

        Epochs are the exporter's ``pid`` lanes; shard capture uses this
        to attribute the ring every shard shares back to the shard whose
        ``Simulator`` opened each epoch.
        """
        out: Dict[int, List[Record]] = {}
        for rec in self.records():
            out.setdefault(rec[0], []).append(rec)
        return out


#: The process-wide recorder every instrumentation site consults.
TRACE = FlightRecorder()
