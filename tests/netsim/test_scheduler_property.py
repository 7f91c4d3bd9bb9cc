"""Property suite: the tiered scheduler is order-identical to a heap.

The reference model is the original single-``heapq`` scheduler: a list
of ``(when, seq, callback, value)`` entries popped one at a time.  The
properties drive both schedulers through the same randomly generated
command sequences — relative and absolute schedules, zero-delay bursts,
timer cancellations, interleaved ``peek``/``run(until)``/``step()``/
``run_until()`` boundaries — and require the dispatch order, timestamps,
and final clock to match exactly.  Any tie-breaking or cohort-boundary
bug in the cohort table / spill heap shows up as a divergent dispatch
log.  The reference also counts what ``scheduler_stats()`` reports —
cohorts (distinct timestamps) opened and drained, the peak number
pending, timers armed and cancelled — so the derived statistics are
checked against an independent count after every pause.
"""

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro.netsim import Simulator


class _RefEvent:
    """What ``run_until`` needs of an event: a trigger flag."""

    def __init__(self):
        self._triggered = False

    def succeed(self, value=None):
        self._triggered = True


class HeapReference:
    """The pre-cohort scheduler: one binary heap, ``(time, seq)`` order.

    Cancellation is modelled the way the production scheduler defines
    it: a cancelled entry still advances the clock at its timestamp but
    its callback never runs.

    Statistics are counted independently of the production bookkeeping.
    A *cohort* is the set of entries at one timestamp scheduled before
    the first of them is dispatched: scheduling at a timestamp with no
    undispatched cohort opens one, and dispatching (or skipping) its
    first entry drains it.  The peak is the most cohorts open at once.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._open = {}          # timestamp -> id of its undrained cohort
        self._cohort_ids = 0
        self.opened = self.drained = self.peak = 0
        self.timers = self.cancelled = 0

    def schedule(self, delay, callback, value=None):
        self.schedule_at(self.now + delay, callback, value)

    def schedule_at(self, when, callback, value=None):
        self._push(when, callback, value)

    def call_later(self, delay, callback, value=None):
        return self.call_at(self.now + delay, callback, value)

    def call_at(self, when, callback, value=None):
        self.timers += 1
        return self._push(when, callback, value)

    def event(self):
        return _RefEvent()

    def _push(self, when, callback, value):
        self._seq += 1
        cohort = self._open.get(when)
        if cohort is None:
            self._cohort_ids += 1
            cohort = self._open[when] = self._cohort_ids
            self.opened += 1
            self.peak = max(self.peak, len(self._open))
        entry = [when, self._seq, callback, value, cohort]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        if entry[2] is not None:
            entry[2] = entry[3] = None
            self.cancelled += 1

    def _pop(self):
        when, _seq, callback, value, cohort = heapq.heappop(self._heap)
        self.now = when
        if self._open.get(when) == cohort:      # its cohort's first entry
            del self._open[when]
            self.drained += 1
        return callback, value

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until=None):
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            callback, value = self._pop()
            if callback is not None:
                callback(value)
        if until is not None:
            self.now = max(self.now, until)

    def step(self):
        """Run the next live callback (IndexError when none is left)."""
        while True:
            callback, value = self._pop()       # IndexError when empty
            if callback is not None:
                callback(value)
                return

    def run_until(self, event):
        while not event._triggered:
            callback, value = self._pop()
            if callback is not None:
                callback(value)

    def scheduler_stats(self):
        events, created, timers = self._seq, self.opened, self.timers
        return {
            "events_scheduled": events,
            "cohorts_created": created,
            "cohorts_drained": self.drained,
            "avg_cohort_size": events / created if created else 0.0,
            "spill_rate": created / events if events else 0.0,
            "peak_spill_depth": self.peak,
            "timers_created": timers,
            "timers_cancelled": self.cancelled,
            "cancelled_timer_ratio": (self.cancelled / timers
                                      if timers else 0.0),
        }


# Delays drawn from a small grid so same-timestamp cohorts (including
# zero-delay bursts) are common, plus arbitrary floats for irregularity.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 1e-9]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def _programs(draw):
    """A program is a list of scheduling commands executed up front plus
    commands executed *from inside callbacks* (self-rescheduling)."""
    n = draw(st.integers(min_value=1, max_value=40))
    commands = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["schedule", "schedule", "schedule_at", "timer", "timer",
             "chain", "mark"]))
        delay = draw(_DELAYS)
        cancel = draw(st.booleans()) if kind == "timer" else False
        # chain: the callback reschedules itself `depth` more times.
        depth = draw(st.integers(1, 3)) if kind == "chain" else 0
        redelay = draw(_DELAYS) if kind == "chain" else 0.0
        commands.append((kind, delay, cancel, depth, redelay))
    return commands


def _execute(sim, commands, log):
    """Load one command program into a scheduler, logging dispatches.

    Returns the events the program's ``mark`` callbacks trigger, in
    command order (targets for ``run_until``).
    """
    timers = []
    marks = []

    def make_cb(tag):
        def cb(value):
            log.append((sim.now, tag, value))
        return cb

    def make_mark(tag, event):
        def cb(value):
            log.append((sim.now, tag, value))
            event.succeed(value)
        return cb

    def make_chain(tag, depth, redelay):
        state = {"left": depth}

        def cb(value):
            log.append((sim.now, tag, state["left"]))
            if state["left"] > 0:
                state["left"] -= 1
                sim.schedule(redelay, cb, None)
        return cb

    for index, (kind, delay, cancel, depth, redelay) in enumerate(commands):
        tag = f"{kind}{index}"
        if kind == "schedule":
            sim.schedule(delay, make_cb(tag), index)
        elif kind == "schedule_at":
            sim.schedule_at(sim.now + delay, make_cb(tag), index)
        elif kind == "timer":
            handle = sim.call_later(delay, make_cb(tag), index)
            if cancel:
                timers.append(handle)
        elif kind == "chain":
            sim.schedule(delay, make_chain(tag, depth, redelay), None)
        elif kind == "mark":
            event = sim.event()
            marks.append(event)
            sim.schedule(delay, make_mark(tag, event), index)
    for handle in timers:
        if type(handle) is list:          # reference model entry
            sim.cancel(handle)
        else:                             # TimerHandle (list subclass)
            handle.cancel()
    return marks


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_dispatch_order_matches_heap_reference(commands):
    ref_log, new_log = [], []
    ref = HeapReference()
    _execute(ref, commands, ref_log)
    ref.run()

    sim = Simulator(seed=0)
    _execute(sim, commands, new_log)
    sim.run()

    assert new_log == ref_log
    assert sim.now == ref.now
    assert sim.scheduler_stats() == ref.scheduler_stats()


@settings(max_examples=200, deadline=None)
@given(_programs(),
       st.lists(st.floats(min_value=0.0, max_value=12.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=5))
def test_interleaved_run_until_and_peek_boundaries(commands, boundaries):
    """run(until) must stop exactly at cohort boundaries and peek must
    agree between models at every pause point."""
    boundaries = sorted(boundaries)
    ref_log, new_log = [], []
    ref = HeapReference()
    _execute(ref, commands, ref_log)
    sim = Simulator(seed=0)
    _execute(sim, commands, new_log)

    for until in boundaries:
        if until < ref.now:
            continue
        ref.run(until=until)
        sim.run(until=until)
        assert new_log == ref_log
        assert sim.now == ref.now
        assert sim.peek() == ref.peek() or (
            # peek may differ only in how cancelled heads are reported;
            # both must still agree on "nothing pending".
            math.isinf(sim.peek()) == math.isinf(ref.peek()))
        assert sim.scheduler_stats() == ref.scheduler_stats()
    ref.run()
    sim.run()
    assert new_log == ref_log
    assert sim.now == ref.now
    assert sim.scheduler_stats() == ref.scheduler_stats()


@st.composite
def _drivers(draw):
    """Pause points for one program: ``("run", until)``, ``("step", n)``
    and ``("until", mark ordinal)`` — the last two stop mid-cohort."""
    return draw(st.lists(st.one_of(
        st.tuples(st.just("run"),
                  st.floats(min_value=0.0, max_value=12.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("step"), st.integers(1, 4)),
        st.tuples(st.just("until"), st.integers(0, 5)),
    ), min_size=1, max_size=8))


def _drive(sim, marks, driver):
    kind, arg = driver
    if kind == "run":
        if arg >= sim.now:
            sim.run(until=arg)
    elif kind == "step":
        for _ in range(arg):
            try:
                sim.step()
            except IndexError:
                break
    elif marks:
        sim.run_until(marks[arg % len(marks)])


@settings(max_examples=200, deadline=None)
@given(_programs(), _drivers())
def test_mixed_drivers_match_reference_and_stats(commands, drivers):
    """run(until), step() and run_until() interleaved in any order —
    stopping mid-cohort — dispatch what the heap does, and
    scheduler_stats() equals the reference's independent count at every
    pause."""
    ref_log, new_log = [], []
    ref = HeapReference()
    ref_marks = _execute(ref, commands, ref_log)
    sim = Simulator(seed=0)
    marks = _execute(sim, commands, new_log)

    for driver in drivers:
        _drive(ref, ref_marks, driver)
        _drive(sim, marks, driver)
        assert new_log == ref_log
        assert sim.now == ref.now
        assert sim.scheduler_stats() == ref.scheduler_stats()
    ref.run()
    sim.run()
    assert new_log == ref_log
    assert sim.now == ref.now
    assert sim.scheduler_stats() == ref.scheduler_stats()


@settings(max_examples=100, deadline=None)
@given(_programs())
def test_step_by_step_matches_run(commands):
    """Driving the scheduler one step() at a time dispatches the exact
    sequence a single run() would (shared dispatch state)."""
    run_log, step_log = [], []
    whole = Simulator(seed=0)
    _execute(whole, commands, run_log)
    whole.run()

    stepped = Simulator(seed=0)
    _execute(stepped, commands, step_log)
    while stepped.peek() != float("inf"):
        try:
            stepped.step()
        except IndexError:
            break
    assert step_log == run_log
    assert stepped.now == whole.now
    assert stepped.scheduler_stats() == whole.scheduler_stats()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_DELAYS, st.booleans()),
                min_size=1, max_size=30))
def test_cancellation_timestamps_still_advance_clock(pairs):
    """A drained schedule ends at the same clock whether its last timers
    fired or were cancelled (cancelled entries advance time lazily)."""
    sim = Simulator(seed=0)
    fired = []
    latest = 0.0
    for delay, cancel in pairs:
        handle = sim.call_later(delay, fired.append, delay)
        latest = max(latest, handle.when)
        if cancel:
            assert handle.cancel()
            assert not handle.cancel()     # idempotent
    sim.run()
    assert sim.now == latest
    assert fired == sorted(
        d for (d, cancel) in pairs if not cancel)
