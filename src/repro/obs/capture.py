"""Per-shard capture of observability state for the shard merge.

A sharded run (``repro.shard.runner``) interleaves every shard's
simulator in one process, so the process-wide
:data:`~repro.obs.tracer.TRACE` ring holds all shards' records, one
tracer epoch per shard.  At run end the runner buckets them:

* :class:`ShardCapture` — one shard's surviving flight-recorder records
  (epoch already rewritten to the shard's merged-trace ``pid`` lane),
  its per-kind span census, the ring's total/dropped counters, and the
  shard registry's nested metrics snapshot;
* :class:`ShardObs` — the container the merge exporter consumes:
  per-shard captures plus the per-round barrier telemetry and transport
  totals only the coordinator can see.

Capture is observe-only by construction: bucketing and lane rewriting
happen *after* ``Simulator.run`` has finished the last round, touch no
simulator state, and draw from no RNG, so a traced sharded run stays
bit-identical to an untraced one (the soundness argument is spelled
out in DESIGN.md §4.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .tracer import FlightRecorder, Record, TRACE

__all__ = ["ShardCapture", "ShardObs", "capture_shards", "shard_lane"]


def shard_lane(shard_id: int) -> int:
    """Merged-trace ``pid`` for a shard (lane 0 is the coordinator)."""
    return shard_id + 1


@dataclass
class ShardCapture:
    """One shard's observability state at the end of a sharded run.

    ``records`` carry the shard's merged-trace lane in the epoch slot
    (``shard_lane(shard_id)``), normalized at capture time so a capture
    is byte-equal across runs.  ``total`` counts this shard's surviving
    records; ``dropped`` is the *ring's* eviction count (shared by every
    shard — nonzero means censuses under-report and span/count
    cross-checks go best-effort).  ``metrics`` is the shard registry's
    ``snapshot_nested()``; shard registries hold only deterministic
    values (simulated clocks, event and frame counts — never wall time),
    so it too is byte-equal across runs.
    """

    shard_id: int
    records: List[Record] = field(default_factory=list)
    span_counts: Dict[str, int] = field(default_factory=dict)
    total: int = 0
    dropped: int = 0
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class ShardObs:
    """Everything the merge exporter needs from one sharded run.

    ``rounds`` is the coordinator's per-barrier telemetry log (clocks
    before the round, granted horizons, earliest-action bases, messages
    moved, frames/bytes shipped, cumulative skips) — the
    coordinator-side view no simulator's tracer epoch records.  ``shards``
    maps shard id to its wall/clock summary and ``transport`` holds the
    run-level interconnect totals.
    """

    captures: Dict[int, ShardCapture] = field(default_factory=dict)
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    transport: Dict[str, Any] = field(default_factory=dict)

    @property
    def dropped_records(self) -> int:
        """The ring's eviction count (0 = every census exact)."""
        return max((cap.dropped for cap in self.captures.values()),
                   default=0)

    @property
    def total_records(self) -> int:
        return sum(len(cap.records) for cap in self.captures.values())


def capture_shards(epoch_of: Dict[int, int],
                   recorder: Optional[FlightRecorder] = None,
                   metrics_of: Optional[Dict[int, Dict[str, Dict]]] = None,
                   ) -> Dict[int, ShardCapture]:
    """Bucket a recorder's surviving records into per-shard captures.

    ``epoch_of`` maps shard id -> the tracer epoch that shard's
    ``Simulator`` opened (one ring holds every shard).  Epochs not owned
    by any listed shard (reference runs, earlier experiments) are
    ignored; each record's epoch is rewritten to the shard's stable
    merged-trace lane so captures compare byte-equal across runs.
    """
    if recorder is None:
        recorder = TRACE
    shard_of_epoch = {epoch: sid for sid, epoch in epoch_of.items()
                      if epoch > 0}
    buckets: Dict[int, List[Record]] = {sid: [] for sid in epoch_of}
    for epoch, bucket in recorder.records_by_epoch().items():
        sid = shard_of_epoch.get(epoch)
        if sid is None:
            continue
        lane = shard_lane(sid)
        dst = buckets[sid]
        for _epoch, kind, start, end, where, args in bucket:
            dst.append((lane, kind, start, end, where, args))
    out: Dict[int, ShardCapture] = {}
    dropped = recorder.dropped
    for sid in sorted(buckets):
        records = buckets[sid]
        counts: Dict[str, int] = {}
        for rec in records:
            kind = rec[1]
            counts[kind] = counts.get(kind, 0) + 1
        out[sid] = ShardCapture(
            shard_id=sid, records=records,
            span_counts=counts, total=len(records), dropped=dropped,
            metrics=(metrics_of or {}).get(sid, {}))
    return out
