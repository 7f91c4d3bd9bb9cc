"""Unit tests for the tiered scheduler: cancellable timers, cohort
semantics, shared step()/run() dispatch state, scheduler statistics,
and the link transmit model against a reference transmitter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Simulator
from repro.netsim.link import ETHERNET_OVERHEAD_BYTES, Link


class TestTimers:
    def test_call_later_fires_in_seq_order_with_schedule(self):
        sim = Simulator(seed=0)
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.call_later(1.0, log.append, "b")
        sim.schedule(1.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_call_at_exact_timestamp(self):
        sim = Simulator(seed=0)
        seen = []
        handle = sim.call_at(2.5, seen.append, "x")
        assert handle.when == 2.5
        sim.run()
        assert seen == ["x"] and sim.now == 2.5

    def test_cancel_prevents_dispatch_but_advances_clock(self):
        sim = Simulator(seed=0)
        seen = []
        handle = sim.call_later(3.0, seen.append, "never")
        sim.call_later(1.0, seen.append, "early")
        assert handle.cancel() is True
        sim.run()
        assert seen == ["early"]
        # The cancelled entry still advances the clock at its timestamp,
        # exactly as the tombstone dispatch it replaces did.
        assert sim.now == 3.0

    def test_cancel_is_idempotent_and_false_after_fire(self):
        sim = Simulator(seed=0)
        handle = sim.call_later(1.0, lambda v: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

        fired = sim.call_later(1.0, lambda v: None)
        sim.run()
        sim.schedule(1.0, lambda v: None)   # move the clock past it
        sim.run()
        assert fired.cancel() is False

    def test_negative_delay_and_past_call_at_rejected(self):
        sim = Simulator(seed=0)
        sim.schedule(1.0, lambda v: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_later(-0.5, lambda v: None)
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda v: None)


class TestSharedDispatchState:
    def test_step_then_run_continues_mid_cohort(self):
        sim = Simulator(seed=0)
        log = []
        for tag in "abcd":
            sim.schedule(1.0, log.append, tag)
        sim.step()
        assert log == ["a"] and sim.now == 1.0
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_step_skips_cancelled_timers(self):
        sim = Simulator(seed=0)
        log = []
        sim.call_later(1.0, log.append, "x").cancel()
        sim.call_later(1.0, log.append, "y")
        sim.step()
        assert log == ["y"]

    def test_step_raises_when_drained(self):
        sim = Simulator(seed=0)
        sim.schedule(1.0, lambda v: None)
        sim.step()
        with pytest.raises(IndexError):
            sim.step()

    def test_peek_mid_cohort_reports_now(self):
        sim = Simulator(seed=0)
        sim.schedule(1.0, lambda v: None)
        sim.schedule(1.0, lambda v: None)
        sim.schedule(2.0, lambda v: None)
        sim.step()
        assert sim.peek() == 1.0       # second cohort entry still due
        sim.step()
        assert sim.peek() == 2.0


class TestSchedulerStats:
    def test_counters_track_cohorts_and_timers(self):
        sim = Simulator(seed=0)
        for _ in range(10):
            sim.schedule(1.0, lambda v: None)   # one 10-entry cohort
        sim.schedule(2.0, lambda v: None)
        handle = sim.call_later(3.0, lambda v: None)
        handle.cancel()
        sim.run()
        stats = sim.scheduler_stats()
        assert stats["events_scheduled"] == 12
        assert stats["cohorts_created"] == 3
        assert stats["cohorts_drained"] == 3
        assert stats["avg_cohort_size"] == 4.0
        assert stats["spill_rate"] == 3 / 12
        assert stats["timers_created"] == 1
        assert stats["timers_cancelled"] == 1
        assert stats["cancelled_timer_ratio"] == 1.0
        assert stats["peak_spill_depth"] == 3


class _Packet:
    def __init__(self, index, size_bytes):
        self.index = index
        self.size_bytes = size_bytes
        self.ecn = False


class _Sink:
    name = "sink"

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive(self, packet):
        self.deliveries.append((self.sim.now, packet.index, packet.ecn))


BANDWIDTH = 10e9
DELAY = 1e-6


class _Reference:
    """A transmitter written out by hand: each accepted packet
    serializes from ``max(arrival, previous end)``; drop-tail and ECN
    decide on the occupancy at enqueue — the accepted packets whose
    serialization has not started yet (one starting right now has)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.threshold = max(1, capacity // 8)
        self.end = 0.0
        self.starts, self.accepted, self.deliveries = [], [], []
        self.stats = dict.fromkeys(("offered_pkts", "queue_drops",
                                    "ecn_marks", "sent_pkts", "sent_bytes",
                                    "delivered_pkts"), 0)

    def offer(self, when, size):
        index = len(self.accepted)
        self.stats["offered_pkts"] += 1
        waiting = sum(1 for start in self.starts if start > when)
        if waiting >= self.capacity:
            self.stats["queue_drops"] += 1
            self.accepted.append(False)
            return
        ecn = waiting >= self.threshold
        self.stats["ecn_marks"] += ecn
        start = max(when, self.end)
        self.end = start + (size + ETHERNET_OVERHEAD_BYTES) * 8.0 / BANDWIDTH
        self.starts.append(start)
        self.deliveries.append((self.end + DELAY, index, ecn))
        self.stats["sent_pkts"] += 1
        self.stats["sent_bytes"] += size
        self.stats["delivered_pkts"] += 1
        self.accepted.append(True)

    def next_start(self, when):
        """The earliest serialization start after ``when``, or None."""
        return min((start for start in self.starts if start > when),
                   default=None)

    def counters(self):
        return {key: value for key, value in self.stats.items() if value}


def _drive(arrivals, capacity):
    sim = Simulator(seed=0)
    sink = _Sink(sim)
    link = Link(sim, "src", sink, BANDWIDTH, DELAY,
                queue_capacity_pkts=capacity, name="t")
    accepted = []
    for index, (when, size) in enumerate(arrivals):
        sim.schedule_at(when, lambda p: accepted.append(link.send(p)),
                        _Packet(index, size))
    before = sim._sequence
    sim.run()
    return accepted, sink.deliveries, link.stats.as_dict(), \
        sim._sequence - before


# Arrival schedules: bursts of packets sharing one timestamp.  A burst
# comes a gap after the previous one (zero up to ~100 serialization
# times of a full frame) or, when ``on_start`` is drawn, at exactly the
# next pending serialization start, the instant a packet leaves the
# queue.
BURSTS = st.lists(st.tuples(st.integers(0, 120_000),     # gap, ns
                            st.integers(1, 120),          # burst length
                            st.integers(64, 1500),        # frame bytes
                            st.booleans()),               # on_start
                  min_size=1, max_size=12)


class TestTransmitModel:
    """``Link`` against the hand-written reference transmitter: same
    delivery floats, accept/drop pattern, ECN bits and counters, with
    exactly one scheduled event (the delivery) per accepted packet."""

    @pytest.mark.parametrize("capacity", [64, 200])
    @given(bursts=BURSTS)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_transmitter(self, capacity, bursts):
        ref = _Reference(capacity)
        arrivals, when = [], 0.0
        for gap_ns, length, size, on_start in bursts:
            start = ref.next_start(when) if on_start else None
            when = when + gap_ns * 1e-9 if start is None else start
            for _ in range(length):
                ref.offer(when, size)
                arrivals.append((when, size))
        accepted, deliveries, stats, events = _drive(arrivals, capacity)
        assert accepted == ref.accepted
        assert deliveries == ref.deliveries
        assert stats == ref.counters()
        assert events == sum(accepted)

    @pytest.mark.parametrize("capacity", [64, 200])
    def test_a_packet_leaves_the_queue_at_its_start(self, capacity):
        # A full queue behind one serializing packet; at the instant
        # the first queued packet starts, exactly one slot is free.
        ref = _Reference(capacity)
        arrivals = [(0.0, 1500)] * (capacity + 10)
        for when, size in arrivals:
            ref.offer(when, size)
        opening = ref.next_start(0.0)
        arrivals += [(opening, 700)] * 2
        for when, size in arrivals[-2:]:
            ref.offer(when, size)
        accepted, deliveries, stats, _events = _drive(arrivals, capacity)
        assert accepted[-2:] == [True, False]
        assert (accepted, deliveries, stats) == \
            (ref.accepted, ref.deliveries, ref.counters())
        assert stats["queue_drops"] == 10 and stats["ecn_marks"]
