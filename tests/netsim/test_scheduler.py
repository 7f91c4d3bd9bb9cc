"""Unit tests for the tiered scheduler: cancellable timers, cohort
semantics, shared step()/run() dispatch state, scheduler statistics,
and the two link transmit models compared packet by packet."""

import pytest

from repro.netsim import Simulator
from repro.netsim.link import Link, NoLoss, RandomLoss


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
        assert handle.cancelled

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

    def test_timeout_cancel(self):
        sim = Simulator(seed=0)
        resumed = []

        def proc():
            yield sim.timeout(1.0)
            resumed.append(sim.now)

        sim.process(proc())
        victim = sim.timeout(0.5, "gone")
        assert victim.cancel() is True
        assert victim.cancel() is False
        sim.run()
        assert resumed == [1.0]
        assert not victim.triggered

    def test_timeout_cancel_after_trigger_is_noop(self):
        sim = Simulator(seed=0)
        timeout = sim.timeout(1.0, "v")
        sim.run()
        assert timeout.triggered and timeout.value == "v"
        assert timeout.cancel() is False


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
    def __init__(self, index, size_bytes=1500):
        self.index = index
        self.size_bytes = size_bytes
        self.ecn = False


class _Sink:
    name = "sink"

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive(self, packet, link):
        self.deliveries.append((self.sim.now, packet.index, packet.ecn))


def _drive(loss, n=600, capacity=200):
    sim = Simulator(seed=0)
    sink = _Sink(sim)
    link = Link(sim, "src", sink, 10e9, 1e-6,
                queue_capacity_pkts=capacity, loss=loss, name="t")
    accepted = [link.send(_Packet(i)) for i in range(n)]
    late = []

    def arrival(_):
        late.append(link.send(_Packet(9000)))

    sim.schedule(2e-5, arrival, None)   # lands mid-drain
    sim.run()
    return accepted + late, sink.deliveries, sim._sequence, link


class TestTransmitModels:
    """``Link`` picks its transmit model from the installed loss model's
    type: fused for ``NoLoss``, two-event for anything else.  That is
    only safe if the two agree on everything but the event count, so
    the same offered schedule goes through both.  ``RandomLoss(0.0)``
    forces the two-event path and, unlike ``NoLoss``, is not special-
    cased; at rate 0 it draws nothing from the RNG."""

    @pytest.mark.parametrize("capacity", [200, 64])
    def test_fused_path_identical_to_two_event_path(self, capacity):
        ref_accepted, ref_deliveries, ref_events, ref_link = _drive(
            RandomLoss(0.0), capacity=capacity)
        accepted, deliveries, events, link = _drive(
            NoLoss(), capacity=capacity)
        assert link._fused and not ref_link._fused
        assert accepted == ref_accepted     # same accept/drop pattern
        assert False in accepted and accepted[-1] is True
        # Same delivery timestamps (== on floats) and ECN bits.
        assert deliveries == ref_deliveries
        assert any(ecn for _t, _i, ecn in deliveries)
        assert link.stats == ref_link.stats
        assert events < ref_events          # fewer scheduler entries
