"""CI gate: disabled tracing must cost <= 2% of the simcore hot path.

The zero-overhead-when-disabled contract (DESIGN.md §Observability) is
that every instrumentation site compiles down to

    if TRACE.enabled:        # one attribute load + falsy branch
        ...

This script verifies the contract *deterministically* instead of
A/B-benchmarking two checkouts (which is hostage to machine load):

1. microbenchmark the exact disabled-path guard, net of loop overhead;
2. measure the per-packet cost of the lossless-link smoke driver
   (``bench_simcore.drive_link``) with tracing disabled — the budget
   the guards are amortized against;
3. assert ``guard_cost * GUARDS_PER_PACKET / per_packet_cost <= 2%``,
   with ``GUARDS_PER_PACKET`` a deliberate over-count of the trace
   guards a packet can cross per simulated hop;
4. repeat the amortization for a *sharded* run (rack2, workers=1):
   the per-event cost of the shard fabric — whose boundary stubs
   (``repro.shard.boundary``) carry their own TRACE call sites,
   including the PR 10 ``boundary.deliver`` instant — must likewise
   absorb the disabled guards inside the same 2% budget.

A loose absolute rate floor backstops each ratio check: if a driver
itself collapsed (e.g. recording sneaked onto the disabled path), the
ratio could look fine while the simulator got slow.

Usage:  PYTHONPATH=src python scripts/check_trace_overhead.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from bench_simcore import drive_link, drive_raw_events    # noqa: E402

from repro.obs.tracer import TRACE                        # noqa: E402

# Generous over-count of `if TRACE.enabled` sites one packet can cross
# per hop: link send + queue pop + host receive + host cpu + switch
# receive + pipeline kernel + flow transmit + flow ack.
GUARDS_PER_PACKET = 8
MAX_OVERHEAD_FRACTION = 0.02

# Guard over-count per *event* on the sharded flow fabric.  The worst
# event is a boundary egress send crossing the queue-drop, ecn, and
# serialize/propagate guard sites (ShardEgressLink.send); an ingress
# replay crosses one (boundary.deliver).  6 doubles the worst case —
# the fabric has no RPC-stack guards, so the link-driver figure of 8
# per packet does not apply per event here.
SHARD_GUARDS_PER_EVENT = 6

# Catastrophe floors (~3x below the recorded baseline rates): these
# fire only if the hot path fundamentally regressed, not on CI jitter.
MIN_LINK_PPS = 120_000.0
MIN_RAW_EVENTS_PER_SEC = 350_000.0
MIN_SHARD_EVENTS_PER_SEC = 30_000.0

_N = 2_000_000


def _guard_cost_s() -> float:
    """Per-iteration cost of the disabled guard, net of loop overhead."""
    assert not TRACE.enabled, "guard must be measured with tracing off"

    def guarded() -> float:
        start = perf_counter()
        for _ in range(_N):
            if TRACE.enabled:
                TRACE.record("x", 0.0, 1.0, "y")
        return (perf_counter() - start) / _N

    def empty() -> float:
        start = perf_counter()
        for _ in range(_N):
            pass
        return (perf_counter() - start) / _N

    return max(0.0, min(guarded() for _ in range(3))
               - min(empty() for _ in range(3)))


def _sharded_per_event_s() -> float:
    """Untraced per-event cost of the sharded fabric (rack2, workers=1).

    ``sum(work_s)`` is pure shard simulation time (injection, run,
    drain) — coordinator bookkeeping is excluded, which makes the
    per-event denominator *smaller* and the overhead bound stricter.
    """
    from repro.experiments.exp_fattree import build_scenario
    from repro.shard import run_sharded

    assert not TRACE.enabled, "sharded leg must run untraced"
    scenario, partition = build_scenario("rack2", fast=True, seed=0)
    best = float("inf")
    for _ in range(3):
        result = run_sharded(scenario, partition=partition, workers=1)
        best = min(best, sum(result.work_s) / result.total_events)
    return best


def main() -> int:
    guard = _guard_cost_s()
    link_pps = max(drive_link(50_000) for _ in range(3))
    events_per_sec = max(drive_raw_events(200_000) for _ in range(3))
    per_packet = 1.0 / link_pps

    shard_per_event = _sharded_per_event_s()
    shard_events_per_sec = 1.0 / shard_per_event

    overhead = guard * GUARDS_PER_PACKET / per_packet
    shard_overhead = guard * SHARD_GUARDS_PER_EVENT / shard_per_event
    print(f"disabled guard     : {guard * 1e9:8.1f} ns")
    print(f"lossless link      : {link_pps:12,.0f} pkts/s "
          f"({per_packet * 1e9:.0f} ns/pkt)")
    print(f"raw event dispatch : {events_per_sec:12,.0f} events/s")
    print(f"sharded fabric     : {shard_events_per_sec:12,.0f} events/s "
          f"({shard_per_event * 1e9:.0f} ns/event, rack2 workers=1)")
    print(f"worst-case overhead: {overhead:.2%} "
          f"({GUARDS_PER_PACKET} guards/pkt, budget "
          f"{MAX_OVERHEAD_FRACTION:.0%})")
    print(f"sharded overhead   : {shard_overhead:.2%} "
          f"({SHARD_GUARDS_PER_EVENT} guards/event incl. boundary "
          f"stubs, budget {MAX_OVERHEAD_FRACTION:.0%})")

    failures = []
    if overhead > MAX_OVERHEAD_FRACTION:
        failures.append(
            f"disabled-tracing overhead {overhead:.2%} exceeds "
            f"{MAX_OVERHEAD_FRACTION:.0%}: the guard is no longer a "
            f"single attribute check")
    if shard_overhead > MAX_OVERHEAD_FRACTION:
        failures.append(
            f"sharded disabled-tracing overhead {shard_overhead:.2%} "
            f"exceeds {MAX_OVERHEAD_FRACTION:.0%}: a boundary-stub "
            f"trace site grew beyond the guarded pattern")
    if link_pps < MIN_LINK_PPS:
        failures.append(f"link driver collapsed: {link_pps:,.0f} pkts/s "
                        f"< floor {MIN_LINK_PPS:,.0f}")
    if events_per_sec < MIN_RAW_EVENTS_PER_SEC:
        failures.append(f"event dispatch collapsed: "
                        f"{events_per_sec:,.0f}/s "
                        f"< floor {MIN_RAW_EVENTS_PER_SEC:,.0f}")
    if shard_events_per_sec < MIN_SHARD_EVENTS_PER_SEC:
        failures.append(f"sharded fabric collapsed: "
                        f"{shard_events_per_sec:,.0f} events/s "
                        f"< floor {MIN_SHARD_EVENTS_PER_SEC:,.0f}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("ok: zero-overhead-when-disabled contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
