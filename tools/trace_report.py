"""Summarize, diff, and validate flight-recorder trace dumps.

Usage (from the repo root):

    # per-kind duration histograms, top spans by simulated time,
    # retransmission causes
    PYTHONPATH=src python tools/trace_report.py summary trace.json

    # per-kind count deltas + first divergent event between two dumps
    PYTHONPATH=src python tools/trace_report.py diff a.json b.json

    # the CI schema gate (exit 1 on any violation)
    PYTHONPATH=src python tools/trace_report.py validate trace.json \
        --metrics trace.metrics.jsonl

    # merged sharded-run report: per-shard lanes, compute imbalance,
    # transport counters, flow stitches
    PYTHONPATH=src python tools/trace_report.py shards shard_trace.json

The input is the Chrome/Perfetto trace-event JSON written by
``repro.obs.export_trace`` / ``repro.obs.merge.write_merged_trace``
(or any ``--trace`` flag); ``summary`` and ``diff`` work on any trace
in that format, ``shards`` needs a merged sharded-run trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.netsim import mean, percentile                     # noqa: E402
from repro.obs import (                                       # noqa: E402
    load_metrics_jsonl,
    load_trace,
    validate_chrome_trace,
)


def _real_events(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [e for e in trace.get("traceEvents", []) if e.get("ph") != "M"]


def _span_durations(events) -> Dict[str, List[float]]:
    """Per-kind duration samples (µs) for complete spans."""
    out: Dict[str, List[float]] = {}
    for event in events:
        if event.get("ph") == "X":
            out.setdefault(event["name"], []).append(event.get("dur", 0.0))
    return out


def _instant_counts(events) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for event in events:
        if event.get("ph") in ("i", "I"):
            out[event["name"]] = out.get(event["name"], 0) + 1
    return out


def _retx_causes(events) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for event in events:
        if event.get("name") == "flow.retx":
            cause = event.get("args", {}).get("cause", "?")
            out[cause] = out.get(cause, 0) + 1
    return out


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.2f}us"


def cmd_summary(args) -> int:
    trace = load_trace(args.trace)
    events = _real_events(trace)
    if not events:
        print("empty trace (no events)")
        return 1
    other = trace.get("otherData", {})
    print(f"trace: {args.trace}")
    print(f"  events: {len(events)}  "
          f"recorded: {other.get('total_records', '?')}  "
          f"dropped: {other.get('dropped_records', '?')}  "
          f"epochs: {len({e['pid'] for e in events})}")

    durations = _span_durations(events)
    if durations:
        print("\ntop span kinds by total simulated time:")
        totals = sorted(((sum(v), k) for k, v in durations.items()),
                        reverse=True)
        print(f"  {'kind':<20} {'count':>8} {'total':>10} {'mean':>10} "
              f"{'p50':>10} {'p99':>10} {'max':>10}")
        for total, kind in totals[:args.top]:
            samples = durations[kind]
            print(f"  {kind:<20} {len(samples):>8} {_fmt_us(total):>10} "
                  f"{_fmt_us(mean(samples)):>10} "
                  f"{_fmt_us(percentile(samples, 50)):>10} "
                  f"{_fmt_us(percentile(samples, 99)):>10} "
                  f"{_fmt_us(max(samples)):>10}")

    instants = _instant_counts(events)
    if instants:
        print("\ninstant events:")
        for kind in sorted(instants, key=instants.get, reverse=True):
            print(f"  {kind:<24} {instants[kind]:>8}")

    causes = _retx_causes(events)
    if causes:
        print("\nretransmission causes:")
        for cause in sorted(causes, key=causes.get, reverse=True):
            print(f"  {cause:<24} {causes[cause]:>8}")
    return 0


def _event_key(event: Dict[str, Any]) -> Tuple:
    return (event.get("pid"), event.get("ts"), event.get("name"),
            event.get("ph"), event.get("dur"), str(event.get("args")))


def cmd_diff(args) -> int:
    a = _real_events(load_trace(args.a))
    b = _real_events(load_trace(args.b))

    counts_a: Dict[str, int] = {}
    counts_b: Dict[str, int] = {}
    for event in a:
        counts_a[event["name"]] = counts_a.get(event["name"], 0) + 1
    for event in b:
        counts_b[event["name"]] = counts_b.get(event["name"], 0) + 1

    changed = False
    print(f"A: {args.a} ({len(a)} events)")
    print(f"B: {args.b} ({len(b)} events)")
    print("\nper-kind count deltas (B - A):")
    for kind in sorted(set(counts_a) | set(counts_b)):
        delta = counts_b.get(kind, 0) - counts_a.get(kind, 0)
        if delta:
            changed = True
            print(f"  {kind:<24} {delta:+d} "
                  f"({counts_a.get(kind, 0)} -> {counts_b.get(kind, 0)})")
    if not changed:
        print("  (identical per-kind counts)")

    for index, (ea, eb) in enumerate(zip(a, b)):
        if _event_key(ea) != _event_key(eb):
            changed = True
            print(f"\nfirst divergent event at index {index}:")
            lo = max(0, index - args.context)
            for j in range(lo, index):
                print(f"  = {a[j]['name']} ts={a[j]['ts']}")
            print(f"  A {ea.get('name')} ph={ea.get('ph')} "
                  f"ts={ea.get('ts')} args={ea.get('args')}")
            print(f"  B {eb.get('name')} ph={eb.get('ph')} "
                  f"ts={eb.get('ts')} args={eb.get('args')}")
            break
    else:
        if len(a) != len(b):
            changed = True
            longer = "A" if len(a) > len(b) else "B"
            print(f"\ntraces identical for {min(len(a), len(b))} events; "
                  f"{longer} has {abs(len(a) - len(b))} extra")
    if not changed:
        print("\ntraces are event-identical")
    return 1 if changed and args.strict else 0


def cmd_validate(args) -> int:
    trace = load_trace(args.trace)
    metrics = load_metrics_jsonl(args.metrics) if args.metrics else None
    problems = validate_chrome_trace(trace, metrics)
    events = _real_events(trace)
    if not events:
        problems.append("trace contains no events")
    if problems:
        print(f"INVALID: {len(problems)} problem(s)")
        for problem in problems[:50]:
            print(f"  - {problem}")
        return 1
    print(f"valid: {len(events)} events, "
          f"{len({e['pid'] for e in events})} epoch(s)")
    return 0


def cmd_shards(args) -> int:
    trace = load_trace(args.trace)
    other = trace.get("otherData", {})
    shards = other.get("shards")
    if not isinstance(shards, dict) or not shards:
        print("not a merged sharded-run trace "
              "(otherData.shards missing; see repro.obs.merge)")
        return 1
    events = _real_events(trace)

    print(f"merged sharded trace: {args.trace}")
    transport = other.get("transport", {})
    if transport:
        print(f"  rounds: {transport.get('rounds', '?')}  "
              f"frames: {transport.get('frames_sent', '?')}  "
              f"bytes: {transport.get('transport_bytes', '?')}  "
              f"skipped: {transport.get('horizon_rounds_skipped', '?')}")
    print(f"  flow stitches (cross-shard s/f pairs): "
          f"{other.get('flow_pairs', 0)}  "
          f"dropped records: {other.get('dropped_records', 0)}")

    # -- compute per shard ---------------------------------------------
    print("\nper-shard compute (wall time):")
    print(f"  {'shard':>5} {'events':>9} {'records':>9} {'work ms':>9} "
          f"{'clock ms':>9}")
    works = []
    for sid in sorted(shards, key=int):
        info = shards[sid]
        work = float(info.get("work_s", 0.0))
        works.append(work)
        print(f"  {sid:>5} {info.get('events', '?'):>9} "
              f"{info.get('records', '?'):>9} {work * 1e3:>9.1f} "
              f"{float(info.get('clock_s', 0.0)) * 1e3:>9.3f}")
    if works and max(works) > 0:
        avg = mean(works)
        print(f"  compute imbalance (max/mean work): "
              f"{max(works) / avg if avg > 0 else 0.0:.2f}x")

    # -- per-shard span histograms -------------------------------------
    by_pid: Dict[int, List[Dict[str, Any]]] = {}
    for event in events:
        by_pid.setdefault(event["pid"], []).append(event)
    for pid in sorted(by_pid):
        lane = "coordinator" if pid == 0 else f"shard {pid - 1}"
        lane_events = by_pid[pid]
        durations = _span_durations(lane_events)
        print(f"\n{lane} (pid {pid}): {len(lane_events)} events")
        totals = sorted(((sum(v), k) for k, v in durations.items()),
                        reverse=True)
        for total, kind in totals[:args.top]:
            samples = durations[kind]
            print(f"  {kind:<20} {len(samples):>8} "
                  f"total {_fmt_us(total):>10}  "
                  f"mean {_fmt_us(mean(samples)):>10}  "
                  f"p99 {_fmt_us(percentile(samples, 99)):>10}")
        instants = _instant_counts(lane_events)
        for kind in sorted(instants, key=instants.get,
                           reverse=True)[:args.top]:
            print(f"  {kind:<20} {instants[kind]:>8} instants")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summary", help="per-kind histograms and totals")
    p_sum.add_argument("trace")
    p_sum.add_argument("--top", type=int, default=15,
                       help="span kinds to show (default 15)")
    p_sum.set_defaults(fn=cmd_summary)

    p_diff = sub.add_parser("diff", help="compare two trace dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--context", type=int, default=3,
                        help="matching events to print before a divergence")
    p_diff.add_argument("--strict", action="store_true",
                        help="exit 1 when the traces differ")
    p_diff.set_defaults(fn=cmd_diff)

    p_val = sub.add_parser("validate", help="schema-check a trace (CI gate)")
    p_val.add_argument("trace")
    p_val.add_argument("--metrics", default=None,
                       help="metrics JSONL to cross-check span counts")
    p_val.set_defaults(fn=cmd_validate)

    p_sh = sub.add_parser(
        "shards", help="per-shard lanes / imbalance report "
        "for a merged sharded-run trace")
    p_sh.add_argument("trace")
    p_sh.add_argument("--top", type=int, default=8,
                      help="span kinds per lane to show (default 8)")
    p_sh.set_defaults(fn=cmd_shards)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
