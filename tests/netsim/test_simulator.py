"""Unit tests for the event loop, events, and processes."""

import pytest

from repro.netsim import (
    AllOf,
    AnyOf,
    Event,
    EventFailed,
    Interrupt,
    SimulationError,
    Simulator,
    WallClockExceeded,
)
from repro.netsim.simulator import (
    global_wall_deadline,
    set_global_wall_deadline,
)


@pytest.fixture
def sim():
    return Simulator(seed=42)


class TestClockAndScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_in_time_order(self, sim):
        log = []
        sim.schedule(2.0, log.append, "late")
        sim.schedule(1.0, log.append, "early")
        sim.run()
        assert log == ["early", "late"]

    def test_same_time_events_run_in_scheduling_order(self, sim):
        log = []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda v: None)

    def test_run_until_time_stops_before_later_events(self, sim):
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "b")
        sim.run(until=2.0)
        assert log == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert log == ["a", "b"]

    def test_run_until_past_time_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_clock_advances_during_callbacks(self, sim):
        seen = []
        sim.schedule(1.5, lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_nested_scheduling_from_callback(self, sim):
        log = []

        def outer(_):
            log.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner(_):
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() == float("inf")
        sim.schedule(3.0, lambda v: None)
        assert sim.peek() == 3.0

    def test_rng_is_seeded_deterministically(self):
        a = Simulator(seed=7).rng.random()
        b = Simulator(seed=7).rng.random()
        assert a == b


class TestEvents:
    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(123)
        assert ev.triggered and ev.ok and ev.value == 123

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail()

    def test_callback_after_trigger_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_timeout_triggers_at_deadline(self, sim):
        t = sim.timeout(2.5, value="done")
        sim.run()
        assert t.triggered and t.value == "done"
        assert sim.now == 2.5

    def test_timeout_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestProcesses:
    def test_process_runs_and_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "result"

        p = sim.process(proc())
        value = sim.run_until(p)
        assert value == "result"
        assert sim.now == 1.0

    def test_process_receives_event_value(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="payload")
            return got

        p = sim.process(proc())
        assert sim.run_until(p) == "payload"

    def test_two_processes_interleave(self, sim):
        log = []

        def proc(name, delay):
            for i in range(2):
                yield sim.timeout(delay)
                log.append((sim.now, name))

        sim.process(proc("fast", 1.0))
        sim.process(proc("slow", 1.5))
        sim.run()
        assert log == [(1.0, "fast"), (1.5, "slow"), (2.0, "fast"),
                       (3.0, "slow")]

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_process_waiting_on_failed_event_sees_exception(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except EventFailed as exc:
                return ("caught", exc.cause)

        p = sim.process(proc())
        sim.schedule(1.0, lambda _: ev.fail("boom"))
        assert sim.run_until(p) == ("caught", "boom")

    def test_interrupt_reaches_process(self, sim):
        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                return ("interrupted", exc.cause)

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(1.0)
            p.interrupt("now")

        sim.process(attacker())
        assert sim.run_until(p) == ("interrupted", "now")
        assert sim.now == pytest.approx(1.0)

    def test_uncaught_interrupt_fails_process(self, sim):
        def victim():
            yield sim.timeout(100.0)

        p = sim.process(victim())
        sim.schedule(1.0, lambda _: p.interrupt())
        sim.run()
        assert p.triggered and not p.ok

    def test_interrupt_after_completion_is_noop(self, sim):
        def quick():
            yield sim.timeout(0.5)
            return "ok"

        p = sim.process(quick())
        sim.run()
        p.interrupt()
        sim.run()
        assert p.ok and p.value == "ok"

    def test_process_is_an_event_other_processes_can_await(self, sim):
        def worker():
            yield sim.timeout(2.0)
            return 99

        def waiter(w):
            value = yield w
            return value + 1

        w = sim.process(worker())
        p = sim.process(waiter(w))
        assert sim.run_until(p) == 100

    def test_run_until_detects_deadlock(self, sim):
        ev = sim.event()

        def stuck():
            yield ev

        p = sim.process(stuck())
        with pytest.raises(SimulationError):
            sim.run_until(p)

    def test_run_until_respects_limit(self, sim):
        def slow():
            yield sim.timeout(100.0)

        p = sim.process(slow())
        with pytest.raises(SimulationError):
            sim.run_until(p, limit=1.0)


class TestConditions:
    def test_any_of_triggers_on_first(self, sim):
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(2.0, value="two")
        cond = sim.any_of([t1, t2])

        def proc():
            results = yield cond
            return results

        p = sim.process(proc())
        results = sim.run_until(p)
        assert results == {t1: "one"}
        assert sim.now == pytest.approx(1.0)

    def test_all_of_waits_for_every_event(self, sim):
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(2.0, value="two")

        def proc():
            results = yield sim.all_of([t1, t2])
            return sorted(results.values())

        p = sim.process(proc())
        assert sim.run_until(p) == ["one", "two"]
        assert sim.now == pytest.approx(2.0)

    def test_all_of_fails_if_any_child_fails(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        cond = sim.all_of([good, bad])
        sim.schedule(0.5, lambda _: bad.fail("broken"))
        sim.run()
        assert cond.triggered and not cond.ok

    def test_empty_condition_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])
        with pytest.raises(ValueError):
            sim.all_of([])


class TestWallClockDeadline:
    """The sweep timeout guard: a runaway simulation must be cancellable
    by wall-clock deadline, and the guard must not perturb a run that
    finishes in time (it never touches event order or timestamps)."""

    def _spin_forever(self, sim, step_s=1e-9):
        def spin():
            while True:
                yield sim.timeout(step_s)
        sim.process(spin(), name="spin")

    def test_runaway_run_is_cancelled(self):
        from time import perf_counter
        sim = Simulator(seed=0)
        self._spin_forever(sim)
        sim.set_wall_deadline(perf_counter() + 0.05)
        with pytest.raises(WallClockExceeded):
            sim.run()

    def test_runaway_run_until_is_cancelled(self):
        from time import perf_counter
        sim = Simulator(seed=0)
        self._spin_forever(sim)
        never = sim.event()
        sim.set_wall_deadline(perf_counter() + 0.05)
        with pytest.raises(WallClockExceeded):
            sim.run_until(never)

    def test_wall_clock_exceeded_is_a_simulation_error(self):
        # run_chaos_sync_round and friends catch SimulationError to turn
        # explicit failures into results; a timeout must flow the same way.
        assert issubclass(WallClockExceeded, SimulationError)

    def test_finished_run_unaffected_by_deadline(self):
        from time import perf_counter
        log = []

        def build(deadline):
            sim = Simulator(seed=1)

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((sim.now, name))
            sim.process(worker("a", 1.0))
            sim.process(worker("b", 2.0))
            if deadline is not None:
                sim.set_wall_deadline(deadline)
            sim.run()
            return sim.now, sim._sequence

        unguarded = build(None)
        guarded = build(perf_counter() + 60.0)
        assert unguarded == guarded

    def test_global_deadline_inherited_by_new_simulators(self):
        from time import perf_counter
        deadline = perf_counter() + 0.05
        set_global_wall_deadline(deadline)
        try:
            sim = Simulator(seed=0)
            assert sim._wall_deadline == deadline
            self._spin_forever(sim)
            with pytest.raises(WallClockExceeded):
                sim.run()
        finally:
            set_global_wall_deadline(None)
        assert global_wall_deadline() is None
        # Unset again: a simulator built now runs past the old deadline
        # (one that expired long ago) without the guard ever firing.
        log = []
        sim = Simulator(seed=0)
        for i in range(5000):               # > one countdown period
            sim.schedule(i * 1e-9, log.append, i)
        sim.run()
        assert len(log) == 5000
