"""Simulation-core microbenchmarks: the perf-regression floor.

Unlike the figure/table benchmarks (which reproduce paper artifacts),
these measure the simulator itself — the layers every experiment sits
on:

* raw event dispatch (``Simulator`` heap push/pop + callback);
* lossless-link packet forwarding (the fused fast path in
  :class:`~repro.netsim.link.Link`);
* an end-to-end 2-to-1 SyncAgtr aggregation round (client agent ->
  switch pipeline -> server agent and back);
* full-payload ``Packet.copy`` (the columnar ``KVBlock`` buffer-copy
  path that multicast and retransmission ride);
* the fused register kernels (``RegisterFile.add_get_block`` over a
  32-slot block — the per-value switch cost).

Each test attaches its headline rate to ``extra_info`` so the conftest
hook persists it to ``BENCH_simcore.json`` (merged with the standalone
``benchmarks/runner.py`` output).  The assertions are deliberately loose
sanity floors — absolute rates vary with the machine; regressions are
judged by comparing the JSON artifacts across commits.

Run with:  pytest benchmarks/bench_simcore.py --benchmark-only
"""

from __future__ import annotations

import heapq
from array import array
from time import perf_counter

from repro.experiments.common import run_sync_aggregation
from repro.netsim import Host, Link, Node, Simulator
from repro.protocol import (DEFAULT_FP_CODEC, Int8BlockCodec, KVBlock,
                            Packet, full_bitmap)
from repro.switchsim import RegisterFile

RAW_EVENTS = 200_000
LINK_PACKETS = 50_000
AGG_VALUES = 32_768
PACKET_COPIES = 100_000
KERNEL_PACKETS = 20_000
CHURN_FLOWS = 256
CHURN_TICKS = 400
COHORT_EVENTS = 200_000


def drive_raw_events(n_events: int = RAW_EVENTS,
                     population: int = 512) -> float:
    """Pump ``n_events`` trivial callbacks through the heap; events/sec.

    ``population`` self-rescheduling tickers keep the heap at a depth
    comparable to a running experiment, so ``heappush``/``heappop`` pay
    realistic sift costs.
    """
    sim = Simulator(seed=0)
    remaining = [n_events]

    def tick(_value):
        left = remaining[0] - 1
        remaining[0] = left
        if left >= population:
            sim.schedule(1e-6, tick, None)

    for _ in range(population):
        sim.schedule(1e-6, tick, None)
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    assert remaining[0] <= 0
    return n_events / elapsed


# ----------------------------------------------------------------------
# heapq reference schedulers — the A/B baselines for the tiered
# scheduler.  Two flavours of cancellation, because the naive and the
# tuned heap answer differ by orders of magnitude:
#
# * ``exact``: cancelling really removes the entry (list.remove +
#   re-heapify) — the semantically equivalent baseline, since the tiered
#   scheduler's ``TimerHandle.cancel`` also guarantees the callback
#   never fires and the entry is never dispatched.  O(n) per cancel.
# * ``tombstone``: the canonical heapq workaround (and what this repo's
#   scheduler did before the overhaul): the entry stays in the heap and
#   is popped + dispatched as a flag-checking no-op at its deadline.
#   O(log n) amortized, but every cancelled timer still costs an event
#   object, a heap pop, and a dispatch — and tombstones inflate the heap
#   for everything else.

class _HeapRef:
    """The pre-cohort scheduler: one binary heap, ``(time, seq)`` order."""

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, callback, value=None):
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq,
                                    callback, value))

    def run(self):
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, callback, value = pop(heap)
            self.now = when
            callback(value)


class _RefTimerEvent:
    """Old-scheme cancellable wait: a Timeout-like event object whose
    heap entry survives cancellation as a tombstone."""

    __slots__ = ("triggered", "value")

    def __init__(self):
        self.triggered = False
        self.value = None


def _ref_trigger(pair):
    event, value = pair
    if not event.triggered:
        event.triggered = True
        event.value = value


def _drive_rto_churn(arm, cancel, advance, run,
                     flows=CHURN_FLOWS, ticks=CHURN_TICKS,
                     rto=2e-4, tick_s=1e-6):
    """The ReliableFlow RTO shape: every tick each flow supersedes its
    pending retransmission timer (cancel + re-arm at now+rto).  With
    rto >> tick_s essentially every timer is cancelled before firing —
    the regime the ISSUE calls 'overwhelmingly cancelled'.  Returns the
    total number of scheduler entries created.
    """
    handles = [None] * flows
    count = [0]

    def expire(i):
        pass

    def tick(_):
        for i in range(flows):
            handle = handles[i]
            if handle is not None:
                cancel(handle)
            handles[i] = arm(rto, expire, i)
        count[0] += 1
        if count[0] < ticks:
            advance(tick_s, tick)

    advance(tick_s, tick)
    run()
    return ticks * flows + ticks


def drive_event_churn(flows: int = CHURN_FLOWS,
                      ticks: int = CHURN_TICKS) -> dict:
    """Schedule+cancel-heavy timer churn; entries/sec for the tiered
    scheduler and both heapq references, plus the speedup ratios."""
    sim = Simulator(seed=0)
    start = perf_counter()
    n = _drive_rto_churn(
        arm=sim.call_later,
        cancel=lambda handle: handle.cancel(),
        advance=lambda delay, cb: sim.schedule(delay, cb, None),
        run=sim.run, flows=flows, ticks=ticks)
    churn_rate = n / (perf_counter() - start)

    ref = _HeapRef()

    def arm_tombstone(delay, callback, value):
        event = _RefTimerEvent()
        ref.schedule(delay, _ref_trigger, (event, value))
        return event

    start = perf_counter()
    n = _drive_rto_churn(
        arm=arm_tombstone,
        cancel=lambda event: setattr(event, "triggered", True),
        advance=lambda delay, cb: ref.schedule(delay, cb, None),
        run=ref.run, flows=flows, ticks=ticks)
    tombstone_rate = n / (perf_counter() - start)

    # Exact removal is O(n) per cancel, so run it on a shrunken copy of
    # the same workload and quote the per-entry rate.
    exact = _HeapRef()

    def arm_exact(delay, callback, value):
        exact._seq += 1
        entry = (exact.now + delay, exact._seq, callback, value)
        heapq.heappush(exact._heap, entry)
        return entry

    def cancel_exact(entry):
        exact._heap.remove(entry)
        heapq.heapify(exact._heap)

    start = perf_counter()
    n = _drive_rto_churn(
        arm=arm_exact, cancel=cancel_exact,
        advance=lambda delay, cb: exact.schedule(delay, cb, None),
        run=exact.run, flows=flows, ticks=max(8, ticks // 50))
    exact_rate = n / (perf_counter() - start)

    return {
        "event_churn_per_sec": churn_rate,
        "event_churn_heapq_exact_per_sec": exact_rate,
        "event_churn_heapq_tombstone_per_sec": tombstone_rate,
        "event_churn_vs_heapq_x": churn_rate / exact_rate,
        "event_churn_vs_tombstone_x": churn_rate / tombstone_rate,
    }


def drive_cohort_drain(n_events: int = COHORT_EVENTS,
                       population: int = 4096) -> dict:
    """Lockstep tickers forming ``population``-sized same-timestamp
    cohorts; events/sec for the cohort drain vs the heapq reference.

    The cohort loop pays one heap operation and one clock assignment
    per *cohort*; the reference pays a sift-down per *event* with the
    heap pinned at ``population`` entries.
    """

    def drive(sched):
        remaining = [n_events]

        def tick(_value):
            left = remaining[0] - 1
            remaining[0] = left
            if left >= population:
                sched.schedule(1e-6, tick, None)

        for _ in range(population):
            sched.schedule(1e-6, tick, None)
        start = perf_counter()
        sched.run()
        elapsed = perf_counter() - start
        assert remaining[0] <= 0
        return n_events / elapsed

    cohort_rate = drive(Simulator(seed=0))
    ref_rate = drive(_HeapRef())
    return {
        "cohort_drain_events_per_sec": cohort_rate,
        "cohort_drain_heapq_per_sec": ref_rate,
        "cohort_drain_vs_heapq_x": cohort_rate / ref_rate,
    }


class _BenchPacket:
    """Minimal transmittable object (mirrors the test-suite FakePacket)."""

    __slots__ = ("size_bytes",)

    def __init__(self, size_bytes: int = 256):
        self.size_bytes = size_bytes


def drive_link(n_packets: int = LINK_PACKETS) -> float:
    """Blast packets through one lossless link; delivered packets/sec.

    Packets are offered back-to-back, so all but the first queue and
    take the fused path's two scheduler events (serialization start +
    delivery) — the path every trace guard sits on.
    """
    sim = Simulator(seed=0)
    src = Node(sim, "src")
    dst = Host(sim, "dst", cores=1, rx_cpu_cost_s=0.0)
    delivered = [0]

    def on_packet(_pkt, _link):
        delivered[0] += 1

    dst.set_handler(on_packet)
    link = Link(sim, src, dst, bandwidth_bps=100e9, delay_s=1e-6,
                queue_capacity_pkts=n_packets + 1,
                ecn_threshold_pkts=n_packets + 1)
    src.attach_egress(link)
    packets = [_BenchPacket() for _ in range(n_packets)]
    start = perf_counter()
    for packet in packets:
        link.send(packet)
    sim.run()
    elapsed = perf_counter() - start
    assert delivered[0] == n_packets
    return n_packets / elapsed


def drive_aggregation(n_values: int = AGG_VALUES) -> dict:
    """One 2-to-1 SyncAgtr round; wall-clock aggregation throughput."""
    start = perf_counter()
    result = run_sync_aggregation(n_clients=2, n_values=n_values, seed=0)
    elapsed = perf_counter() - start
    return {
        "agg_values_per_sec": 2 * n_values / elapsed,
        "agg_goodput_gbps": result.goodput_gbps,
        "agg_wall_s": elapsed,
    }


def drive_packet_copy(n_copies: int = PACKET_COPIES) -> float:
    """Duplicate a full 32-slot linear packet; copies/sec.

    This is the multicast / retransmission unit cost: with the columnar
    payload it is a ``__dict__`` copy plus a handful of buffer copies.
    """
    kv = KVBlock.from_columns(range(32), range(32), mapped_mask=-1,
                              keys=list(range(32)))
    pkt = Packet(gaid=1, src="c0", dst="s0", kv=kv, linear_base=0)
    pkt.select_all_slots()
    copy = pkt.copy
    start = perf_counter()
    for _ in range(n_copies):
        copy()
    elapsed = perf_counter() - start
    return n_copies / elapsed


def drive_kv_kernels(n_packets: int = KERNEL_PACKETS) -> float:
    """One full register cycle per 32-slot packet; kv values/sec.

    Mirrors the SyncAgtr hot cycle per packet: restore the payload
    column (the transport's retransmission snapshot), run the fused
    ``add_get_block`` kernel, then ``clear_block`` (the return path).
    """
    regs = RegisterFile(segments=32, registers_per_segment=2048)
    n_blocks = 64
    blocks = [KVBlock.from_columns(range(i * 32, i * 32 + 32), [1] * 32,
                                   mapped_mask=-1)
              for i in range(n_blocks)]
    ones = blocks[0].values[:]
    select = full_bitmap(32)
    add_get = regs.add_get_block
    clear = regs.clear_block
    start = perf_counter()
    for i in range(n_packets):
        block = blocks[i % n_blocks]
        block.values[:] = ones
        add_get(block, select, 0)
        clear(block.addrs, select, 0)
    elapsed = perf_counter() - start
    return n_packets * 32 / elapsed


def drive_fp_kernels(n_packets: int = KERNEL_PACKETS) -> float:
    """Table-fp aggregation cycle per 32-slot packet; fp values/sec.

    The agg=fadd hot path: ``fadd_block`` (table add with truncating
    align/renormalize per slot) followed by the ``get_block`` read and
    the return-path clear.  Bench against ``kv_kernel_values_per_sec``
    for the table-float premium over the fused integer kernel.
    """
    regs = RegisterFile(segments=32, registers_per_segment=2048)
    n_blocks = 64
    one = DEFAULT_FP_CODEC.encode(1.0)[0]
    blocks = [KVBlock.from_columns(range(i * 32, i * 32 + 32), [one] * 32,
                                   mapped_mask=-1)
              for i in range(n_blocks)]
    ones = blocks[0].values[:]
    select = full_bitmap(32)
    fadd = regs.fadd_block
    get = regs.get_block
    clear = regs.clear_block
    start = perf_counter()
    for i in range(n_packets):
        block = blocks[i % n_blocks]
        block.values[:] = ones
        fadd(block, select, 0)
        get(block, select, 0)
        clear(block.addrs, select, 0)
    elapsed = perf_counter() - start
    return n_packets * 32 / elapsed


def drive_quantized_kernels(n_packets: int = KERNEL_PACKETS) -> float:
    """Int8-quantized aggregation cycle; quantized values/sec.

    The agg=qadd path is the integer kernel plus the host-side codec:
    encode a 32-value float block to int8 codes, run the fused
    ``add_get_block``, decode the accumulated codes, then clear.
    """
    regs = RegisterFile(segments=32, registers_per_segment=2048)
    codec = Int8BlockCodec()
    n_blocks = 64
    floats = [0.125 * (j - 16) for j in range(32)]
    blocks = [KVBlock.from_columns(range(i * 32, i * 32 + 32), [0] * 32,
                                   mapped_mask=-1)
              for i in range(n_blocks)]
    select = full_bitmap(32)
    add_get = regs.add_get_block
    clear = regs.clear_block
    encode = codec.encode_block
    decode = codec.decode_block
    start = perf_counter()
    for i in range(n_packets):
        block = blocks[i % n_blocks]
        scale, codes = encode(floats)
        block.values[:] = array("q", codes)
        add_get(block, select, 0)
        decode(scale, block.values)
        clear(block.addrs, select, 0)
    elapsed = perf_counter() - start
    return n_packets * 32 / elapsed


# ----------------------------------------------------------------------
def test_raw_event_rate(benchmark):
    rate = benchmark.pedantic(drive_raw_events, rounds=3, iterations=1)
    benchmark.extra_info["raw_events_per_sec"] = rate
    assert rate > 50_000


def test_event_churn_rate(benchmark):
    result = benchmark.pedantic(drive_event_churn, rounds=3, iterations=1)
    benchmark.extra_info.update(result)
    # The tiered scheduler's O(1) lazy cancellation must beat exact
    # heapq cancellation by a wide margin and the tombstone workaround
    # outright.
    assert result["event_churn_vs_heapq_x"] > 5.0
    assert result["event_churn_vs_tombstone_x"] > 1.0


def test_cohort_drain_rate(benchmark):
    result = benchmark.pedantic(drive_cohort_drain, rounds=3, iterations=1)
    benchmark.extra_info.update(result)
    assert result["cohort_drain_vs_heapq_x"] > 1.0


def test_link_forwarding_rate(benchmark):
    rate = benchmark.pedantic(drive_link, rounds=3, iterations=1)
    benchmark.extra_info["link_pps"] = rate
    assert rate > 20_000


def test_sync_aggregation_rate(benchmark):
    result = benchmark.pedantic(drive_aggregation, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["agg_values_per_sec"] > 5_000
    assert result["agg_goodput_gbps"] > 0


def test_packet_copy_rate(benchmark):
    rate = benchmark.pedantic(drive_packet_copy, rounds=3, iterations=1)
    benchmark.extra_info["packet_copy_per_sec"] = rate
    assert rate > 10_000


def test_kv_kernel_rate(benchmark):
    rate = benchmark.pedantic(drive_kv_kernels, rounds=3, iterations=1)
    benchmark.extra_info["kv_kernel_values_per_sec"] = rate
    assert rate > 100_000


def test_fp_kernel_rate(benchmark):
    rate = benchmark.pedantic(drive_fp_kernels, rounds=3, iterations=1)
    benchmark.extra_info["fp_agg_values_per_sec"] = rate
    assert rate > 20_000


def test_quantized_kernel_rate(benchmark):
    rate = benchmark.pedantic(drive_quantized_kernels, rounds=3,
                              iterations=1)
    benchmark.extra_info["quantized_agg_values_per_sec"] = rate
    assert rate > 20_000
