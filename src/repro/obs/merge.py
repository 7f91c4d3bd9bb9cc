"""Merge per-shard captures into one Chrome/Perfetto timeline.

One sharded run becomes one trace file with a process lane per shard
(``pid = shard_id + 1``, reusing the exporter's epoch→pid mapping — a
shard capture's records already carry their lane in the epoch slot)
plus a coordinator lane at ``pid 0`` holding what no shard's tracer
epoch records:

* **barrier-round spans** — for every round and shard, one ``"X"`` span
  from the shard's clock at the barrier to the horizon the coordinator
  granted it, with the earliest-action base and messages-moved count in
  the args pane: the synchronization structure of the run in simulated
  time;
* **counter tracks** — ``"C"`` events per round for the transport
  (frames, bytes) and synchronization (messages
  moved, cumulative ``horizon_rounds_skipped``);
* **cross-shard flow stitching** — Perfetto flow events (``ph: "s"`` /
  ``"f"``) keyed on ``(cut link, flow, seq)`` linking each egress
  ``link.serialize`` span in the sending shard to its
  ``boundary.deliver`` instant in the receiving shard, so a packet can
  be followed across the shard-lane boundary in the UI.

``otherData`` carries the merged span census (cross-checked by
``validate_chrome_trace``), per-shard summaries, and the transport
totals that ``tools/trace_report.py shards`` renders.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .capture import ShardCapture, ShardObs
from .export import EVENT_SORT_KEY, append_record_events

__all__ = ["merged_chrome_trace", "write_merged_trace",
           "write_merged_metrics_jsonl", "stitch_flow_pairs",
           "COORDINATOR_PID", "FLOW_EGRESS_KIND", "FLOW_INGRESS_KIND"]

COORDINATOR_PID = 0
FLOW_EGRESS_KIND = "link.serialize"
FLOW_INGRESS_KIND = "boundary.deliver"
_US = 1e6


def stitch_flow_pairs(captures: Dict[int, ShardCapture]
                      ) -> List[Tuple[tuple, tuple, tuple]]:
    """Pair egress serializations with ingress deliveries across lanes.

    The stitch key is ``(cut link name, flow_id, seq)`` — both boundary
    halves share the cut link's name, and ``(flow, seq)`` is unique per
    link since the fabric never re-sends a packet over the same cut.
    Only boundary records carry the ``(flow, seq)`` args tuple, so
    intra-shard ``link.serialize`` spans never enter the key space.
    Returns ``[(key, (egress lane, where, ts_s), (ingress lane, where,
    ts_s))]`` sorted by key; pairs whose halves share a lane (possible
    only if a capture were self-referential) are skipped.
    """
    egress: Dict[tuple, Tuple[int, str, float]] = {}
    ingress: Dict[tuple, Tuple[int, str, float]] = {}
    for cap in captures.values():
        for lane, kind, start, _end, where, args in cap.records:
            if args is None or len(args) != 2:
                continue
            if kind == FLOW_EGRESS_KIND:
                egress.setdefault((where,) + tuple(args),
                                  (lane, where, start))
            elif kind == FLOW_INGRESS_KIND:
                ingress.setdefault((where,) + tuple(args),
                                   (lane, where, start))
    pairs = []
    for key in sorted(egress):
        src = egress[key]
        dst = ingress.get(key)
        if dst is None or dst[0] == src[0]:
            continue
        pairs.append((key, src, dst))
    return pairs


def _finite(value) -> Optional[float]:
    """JSON-safe float: non-finite bounds (idle shard: +inf) -> None."""
    if value is None:
        return None
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def merged_chrome_trace(obs: ShardObs) -> Dict[str, Any]:
    """Build one Chrome trace-event JSON object for a sharded run."""
    events: List[Dict[str, Any]] = []
    tids: Dict[tuple, int] = {}

    all_records: List[tuple] = []
    for sid in sorted(obs.captures):
        all_records.extend(obs.captures[sid].records)
    shard_pids = append_record_events(events, all_records, tids)

    def coord_tid(track: str) -> int:
        key = (COORDINATOR_PID, track)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M",
                           "pid": COORDINATOR_PID, "tid": tid, "ts": 0,
                           "args": {"name": track}})
        return tid

    # -- coordinator lane: barrier-round spans + counter tracks --------
    for entry in obs.rounds:
        round_no = entry["round"]
        clocks = entry["clocks"]
        horizons = entry["horizons"]
        bases = entry["bases"]
        for sid, (clock, horizon) in enumerate(zip(clocks, horizons)):
            if horizon <= clock:
                continue
            events.append({
                "name": "barrier.round", "cat": "barrier",
                "ph": "X", "pid": COORDINATOR_PID,
                "tid": coord_tid(f"barrier shard {sid}"),
                "ts": clock * _US,
                "dur": (horizon - clock) * _US,
                "args": {"round": round_no,
                         "base_s": _finite(bases[sid]),
                         "moved": entry["moved"]},
            })
        ts = max(horizons) * _US
        events.append({
            "name": "transport", "ph": "C", "cat": "transport",
            "pid": COORDINATOR_PID, "tid": coord_tid("transport"),
            "ts": ts,
            "args": {"frames": entry["frames"],
                     "bytes": entry["bytes"]},
        })
        events.append({
            "name": "sync", "ph": "C", "cat": "barrier",
            "pid": COORDINATOR_PID, "tid": coord_tid("sync"),
            "ts": ts,
            "args": {"moved": entry["moved"],
                     "horizon_rounds_skipped": entry["skipped"]},
        })

    # -- cross-shard packet stitching ----------------------------------
    pairs = stitch_flow_pairs(obs.captures)
    for flow_id, (key, src, dst) in enumerate(pairs):
        link, flow, seq = key
        args = {"link": link, "flow": flow, "seq": seq}
        src_lane, src_where, src_ts = src
        dst_lane, dst_where, dst_ts = dst
        events.append({
            "name": "xshard.flow", "cat": "xshard", "ph": "s",
            "id": flow_id, "pid": src_lane,
            "tid": tids[(src_lane, src_where)],
            "ts": src_ts * _US, "args": args,
        })
        events.append({
            "name": "xshard.flow", "cat": "xshard", "ph": "f",
            "bp": "e", "id": flow_id, "pid": dst_lane,
            "tid": tids[(dst_lane, dst_where)],
            "ts": dst_ts * _US, "args": args,
        })

    # -- process lanes -------------------------------------------------
    pids = set(shard_pids)
    if obs.rounds:
        pids.add(COORDINATOR_PID)
    for pid in sorted(pids):
        name = "coordinator" if pid == COORDINATOR_PID \
            else f"shard {pid - 1}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "ts": 0, "args": {"name": name}})

    events.sort(key=EVENT_SORT_KEY)

    span_counts: Dict[str, int] = {}
    for event in events:
        if event["ph"] != "M":
            name = event["name"]
            span_counts[name] = span_counts.get(name, 0) + 1
    shard_summaries = {
        str(sid): dict(summary) for sid, summary in
        sorted(obs.shards.items())}
    for sid, cap in sorted(obs.captures.items()):
        shard_summaries.setdefault(str(sid), {})["records"] = \
            len(cap.records)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "span_counts": span_counts,
            "total_records": obs.total_records,
            "dropped_records": obs.dropped_records,
            "time_unit": "us of simulated time",
            "shards": shard_summaries,
            "transport": dict(obs.transport),
            "rounds": len(obs.rounds),
            "flow_pairs": len(pairs),
        },
    }


def write_merged_metrics_jsonl(path, obs: ShardObs,
                               span_counts: Dict[str, int]) -> int:
    """Metrics JSONL companion for a merged trace.

    Leads with the ``flight-recorder/spans`` line the validator
    cross-checks (here: the *merged* census, including coordinator
    events), then one line per shard registry entry and the
    coordinator's per-shard/transport summaries.
    """
    lines = 0
    with open(path, "w") as fh:
        def emit(registry: str, metric: str, values: Dict) -> None:
            nonlocal lines
            fh.write(json.dumps({"registry": registry, "metric": metric,
                                 "values": values}, sort_keys=True,
                                default=str) + "\n")
            lines += 1

        emit("flight-recorder", "spans", dict(span_counts))
        emit("flight-recorder", "recorder",
             {"total_records": obs.total_records,
              "dropped_records": obs.dropped_records})
        for sid, cap in sorted(obs.captures.items()):
            for metric, values in cap.metrics.items():
                emit(f"shard{sid}", metric, values)
        for sid, summary in sorted(obs.shards.items()):
            emit("coordinator", f"shard{sid}.sync", dict(summary))
        emit("coordinator", "transport", dict(obs.transport))
    return lines


def write_merged_trace(obs: ShardObs, trace_path,
                       metrics_path=None) -> Tuple[Path, Path]:
    """Write the merged Perfetto JSON + metrics JSONL for one run."""
    trace_path = Path(trace_path)
    if metrics_path is None:
        metrics_path = trace_path.with_suffix(".metrics.jsonl")
    metrics_path = Path(metrics_path)
    trace = merged_chrome_trace(obs)
    with open(trace_path, "w") as fh:
        json.dump(trace, fh, sort_keys=True)
    write_merged_metrics_jsonl(metrics_path, obs,
                               trace["otherData"]["span_counts"])
    return trace_path, metrics_path
