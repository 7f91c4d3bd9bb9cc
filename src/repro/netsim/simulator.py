"""The discrete-event simulator core.

:class:`Simulator` owns the clock and the pending-event schedule.
:class:`Process` wraps a generator so that ``yield event`` suspends the
process until the event triggers.  This gives application code a
blocking, thread-like style while the whole system remains
deterministic and single-threaded.

Scheduler structure (DESIGN.md §4.7)
------------------------------------
Events are not kept in one binary heap.  The schedule is *tiered*:

* a **cohort table** maps each pending timestamp to the list of events
  scheduled at exactly that instant, in scheduling order.  Scheduling
  into an existing cohort is a dict hit plus a list append — no heap
  comparisons — and the dispatch loop drains a whole same-timestamp
  cohort per iteration;
* a **spill heap** of *distinct* timestamps orders the cohorts.  Its
  push/pop traffic scales with the number of unique pending instants,
  not with the event count, so the classic NetRPC pattern — hundreds of
  link/process events landing on one computed timestamp — costs one
  float comparison per cohort instead of ``O(log n)`` tuple comparisons
  per event;
* **cancellable timers** (:meth:`Simulator.call_later` /
  :meth:`Simulator.call_at`) return a :class:`TimerHandle` whose
  ``cancel()`` is O(1) and lazy: the cohort entry is blanked in place
  and skipped by the dispatch loop, never popped, re-sifted, or
  dispatched as a tombstone callback.

The ordering contract is unchanged from the single-heap model: events
run in ``(time, seq)`` order, where ``seq`` is the monotonically
increasing scheduling sequence number.  Within a cohort the append
order *is* the seq order, so no per-event comparison is needed to
preserve it.  Cancelled entries still advance the clock to their
timestamp when reached (exactly as a tombstone dispatch used to), so a
run that drains the schedule ends at the same ``now`` either way.

Example
-------
>>> sim = Simulator(seed=1)
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("b", 2.0))
>>> _ = sim.process(worker("a", 1.0))
>>> sim.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.obs.tracer import TRACE

from .events import AllOf, Event, EventFailed, Interrupt, Timeout

__all__ = ["Simulator", "Process", "TimerHandle", "SimulationError",
           "WallClockExceeded", "set_global_wall_deadline",
           "track_simulators"]

_heappush = heapq.heappush
_heappop = heapq.heappop

# Every _WALL_CHECK_EVERY dispatched events the run loops consult
# perf_counter(); coarse enough to stay off the hot path, fine enough
# that a runaway run is cancelled within milliseconds.
_WALL_CHECK_EVERY = 2048
_INF = float("inf")

# Process-wide wall deadline (absolute perf_counter() time).  Sweep
# workers install it *before* the run constructs its Simulator; every
# simulator built while it is set inherits it, so the guard reaches
# simulators created arbitrarily deep inside experiment code.
_GLOBAL_WALL_DEADLINE: Optional[float] = None

# Optional construction hook: when a list is installed here, every new
# Simulator appends itself.  tools/profile_experiment.py uses this to
# reach the simulators an experiment builds internally and report their
# scheduler statistics next to the cProfile table.
_SIM_SINK: Optional[list] = None


class SimulationError(RuntimeError):
    """Raised for fatal simulator misuse: running to a time already
    past, or awaiting an event that cannot trigger (the schedule drains
    first, or the limit passes)."""


class WallClockExceeded(SimulationError):
    """A run overran its wall-clock deadline (sweep timeout guard)."""


def set_global_wall_deadline(deadline: Optional[float]) -> None:
    """Install (or clear, with ``None``) the process-wide wall deadline.

    ``deadline`` is an absolute :func:`time.perf_counter` timestamp.
    Only simulators constructed while the deadline is set inherit it.
    """
    global _GLOBAL_WALL_DEADLINE
    _GLOBAL_WALL_DEADLINE = deadline


def track_simulators(sink: Optional[list]) -> None:
    """Install (or clear, with ``None``) a list that collects every
    :class:`Simulator` constructed afterwards.

    Diagnostic-only: lets tooling reach simulators built deep inside
    experiment code to read :meth:`Simulator.scheduler_stats` after a
    run.  The sink holds strong references; callers clear it promptly.
    """
    global _SIM_SINK
    _SIM_SINK = sink


class TimerHandle(list):
    """A cancellable hold on one scheduled callback.

    Returned by :meth:`Simulator.call_later` / :meth:`Simulator.call_at`.
    The handle *is* the schedule entry — a two-element
    ``[callback, value]`` list the dispatch loop unpacks like any other —
    so arming a timer costs a single allocation.  :meth:`cancel` is O(1)
    and *lazy*: the callback slot is blanked in place and the dispatch
    loop skips the entry when its timestamp is reached — no heap
    surgery, no tombstone callback dispatch.
    """

    __slots__ = ("when", "_sim")

    def cancel(self) -> bool:
        """Prevent the callback from running; True if this call did it.

        Returns ``False`` once the timer's timestamp has passed (it
        already fired or was already cancelled).  Cancelling *at* the
        timer's exact timestamp, from a later entry of the same cohort,
        blanks the entry after the callback ran — harmless, but the
        caller is expected to know its own timer fired.
        """
        if self[0] is None or self.when < self._sim.now:
            return False
        self[0] = None
        self[1] = None           # drop the value reference eagerly
        self._sim._timers_cancelled += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self[0] is None else f"at {self.when!r}"
        return f"<TimerHandle {state}>"


class Process(Event):
    """A running generator; itself an event that triggers on completion.

    The wrapped generator may ``yield`` any :class:`Event`.  When the event
    succeeds, the generator resumes with the event's value; when it fails,
    :class:`EventFailed` is thrown into the generator.  The process event
    succeeds with the generator's return value.
    """

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Start the process at the current simulation time, but via the
        # event queue so creation order is preserved deterministically.
        sim.schedule(0.0, self._resume, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    def _resume(self, send_value: Any) -> None:
        # The generator is driven directly (no per-step closure): this
        # method runs once per process step, on the simulator's hottest
        # path, so it reads the event's fields, not its properties.
        if self._triggered:
            return
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-caught interrupt terminates the process as failed.
            self.fail(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as cause:
            self.fail(cause)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
        self._waiting_on = target
        target.add_callback(self._event_done)

    def _event_done(self, event: Event) -> None:
        if self._triggered or self._waiting_on is not event:
            return
        self._waiting_on = None
        if event._ok:
            self._resume(event.value)
        else:
            self._throw(EventFailed(event.value))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Deterministic discrete-event simulator with a seeded RNG.

    Time is a float in **seconds**.  Ties break on a monotonically
    increasing sequence number, so same-time events run in scheduling
    order; within a cohort that order is the append order, so the
    dispatch loop never compares sequence numbers at all.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        # Tier 1: cohort table — pending timestamp -> entries at exactly
        # that instant, in scheduling (= seq) order.  Entries are
        # (callback, value) tuples, or [callback, value] lists for
        # cancellable timers (cancel blanks the callback slot in place).
        self._cohorts: Dict[float, list] = {}
        # Tier 2: spill heap of *distinct* pending timestamps.
        self._times: List[float] = []
        # The cohort currently being drained (its time == self.now) and
        # the index of the next undispatched entry.  Shared by run(),
        # run_until(), and step() so they can interleave mid-cohort.
        self._ready: list = []
        self._ready_i = 0
        self._sequence = 0
        self.rng = random.Random(seed)
        self.set_wall_deadline(_GLOBAL_WALL_DEADLINE)
        self._wall_countdown = _WALL_CHECK_EVERY
        # Scheduler statistics.  The dispatch loops write none of them
        # per event or per cohort: run()/run_until() count drained
        # cohorts in a local and fold it in on exit, and the number of
        # cohorts created is derived (every spill-heap push opens one,
        # every pop drains one) — see scheduler_stats().
        self._cohorts_drained = 0
        self._timers_created = 0
        self._timers_cancelled = 0
        self._peak_spill = 0
        if _SIM_SINK is not None:
            _SIM_SINK.append(self)
        if TRACE.enabled:
            # Each simulator is its own trace epoch, so sequential runs
            # in one process never interleave on the exported timeline.
            TRACE.begin_epoch()

    def set_wall_deadline(self, deadline: Optional[float]) -> None:
        """Cancel this simulator's run loops past an absolute
        :func:`time.perf_counter` timestamp (``None`` disables).

        The guard makes a runaway run *cancellable*: :meth:`run`,
        :meth:`run_until`, and :meth:`step` raise
        :class:`WallClockExceeded` once the deadline passes, checked
        every ``_WALL_CHECK_EVERY`` events.  It never alters event order
        or timestamps, so a run that finishes under its deadline is
        bit-identical to an unguarded run.  An unset deadline is stored
        as ``inf``: the same check, never true.
        """
        self._wall_deadline = _INF if deadline is None else deadline

    def _check_wall_deadline(self) -> None:
        if perf_counter() > self._wall_deadline:
            raise WallClockExceeded(
                f"wall-clock deadline exceeded at t={self.now} "
                f"({self._sequence} events dispatched)")

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[Any], None],
                 value: Any = None) -> None:
        """Run ``callback(value)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._sequence += 1
        when = self.now + delay
        cohort = self._cohorts.get(when)
        if cohort is None:
            self._cohorts[when] = [(callback, value)]
            times = self._times
            _heappush(times, when)
            if len(times) > self._peak_spill:
                self._peak_spill = len(times)
        else:
            cohort.append((callback, value))

    def schedule_at(self, when: float, callback: Callable[[Any], None],
                    value: Any = None) -> None:
        """Run ``callback(value)`` at absolute time ``when``.

        Equivalent to :meth:`schedule` with ``delay = when - now`` but
        free of the float round-trip, so a caller can hit an exact
        timestamp computed elsewhere (a link schedules each delivery at
        the serialization end plus delay it computed at enqueue).
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when}; clock already at {self.now}")
        self._sequence += 1
        cohort = self._cohorts.get(when)
        if cohort is None:
            self._cohorts[when] = [(callback, value)]
            times = self._times
            _heappush(times, when)
            if len(times) > self._peak_spill:
                self._peak_spill = len(times)
        else:
            cohort.append((callback, value))

    def call_later(self, delay: float, callback: Callable[[Any], None],
                   value: Any = None) -> TimerHandle:
        """Like :meth:`schedule`, returning a cancellable handle.

        The timer occupies the same cohort slot a plain event would —
        same sequence number, same tie-breaking — so arming it is
        observably identical to :meth:`schedule` until ``cancel()``.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        when = self.now + delay
        self._sequence += 1
        self._timers_created += 1
        handle = TimerHandle((callback, value))
        handle.when = when
        handle._sim = self
        cohort = self._cohorts.get(when)
        if cohort is None:
            self._cohorts[when] = [handle]
            times = self._times
            _heappush(times, when)
            if len(times) > self._peak_spill:
                self._peak_spill = len(times)
        else:
            cohort.append(handle)
        return handle

    def call_at(self, when: float, callback: Callable[[Any], None],
                value: Any = None) -> TimerHandle:
        """Like :meth:`schedule_at`, returning a cancellable handle."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when}; clock already at {self.now}")
        self._sequence += 1
        self._timers_created += 1
        handle = TimerHandle((callback, value))
        handle.when = when
        handle._sim = self
        cohort = self._cohorts.get(when)
        if cohort is None:
            self._cohorts[when] = [handle]
            times = self._times
            _heappush(times, when)
            if len(times) > self._peak_spill:
                self._peak_spill = len(times)
        else:
            cohort.append(handle)
        return handle

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute the next pending callback, advancing the clock.

        Shares the dispatch state with :meth:`run` / :meth:`run_until`
        (a stopped run can be continued one event at a time and vice
        versa), honours the wall-clock deadline, and skips lazily
        cancelled timers — one *live* callback runs per call.  Raises
        :class:`IndexError` when nothing is pending.
        """
        self._wall_countdown -= 1
        if self._wall_countdown <= 0:
            self._wall_countdown = _WALL_CHECK_EVERY
            self._check_wall_deadline()
        ready = self._ready
        i = self._ready_i
        try:
            while True:
                if i < len(ready):
                    callback, value = ready[i]
                    i += 1
                    if callback is None:
                        continue             # lazily cancelled timer
                    callback(value)
                    return
                when = _heappop(self._times)   # IndexError when empty
                self.now = when
                ready = self._cohorts.pop(when)
                i = 0
                self._cohorts_drained += 1
        finally:
            self._ready = ready
            self._ready_i = i

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none.

        A lazily cancelled timer still counts until its timestamp is
        reached (it advances the clock like the tombstone dispatch it
        replaces), so ``peek`` may report a cancelled entry's time.
        """
        if self._ready_i < len(self._ready):
            return self.now
        return self._times[0] if self._times else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains, or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event falls on it, so back-to-back ``run`` calls see a
        monotonic clock.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock already at {self.now}")
        # The dispatch loop drains one same-timestamp cohort per outer
        # iteration: one heap pop and one clock assignment amortize over
        # every event in the cohort, and the inner loop is index/unpack/
        # call plus the wall-deadline countdown.
        cohorts = self._cohorts
        times = self._times
        pop = _heappop
        countdown = self._wall_countdown
        ready = self._ready
        i = self._ready_i
        drained = 0
        try:
            while True:
                n = len(ready)
                while i < n:
                    callback, value = ready[i]
                    i += 1
                    if callback is not None:
                        callback(value)
                    countdown -= 1
                    if countdown == 0:
                        countdown = _WALL_CHECK_EVERY
                        self._check_wall_deadline()
                if not times:
                    break
                when = times[0]
                if until is not None and when > until:
                    break
                pop(times)
                self.now = when
                ready = cohorts.pop(when)
                i = 0
                drained += 1
        finally:
            self._ready = ready
            self._ready_i = i
            self._wall_countdown = countdown
            self._cohorts_drained += drained
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        Stops *immediately* when the event triggers — same-timestamp
        events scheduled after it stay pending, exactly as with the
        single-heap dispatch loop.  Raises :class:`SimulationError` if
        the schedule drains (or ``limit`` is hit) before the event
        triggers, and :class:`EventFailed` if the event fails.
        """
        cohorts = self._cohorts
        times = self._times
        pop = _heappop
        countdown = self._wall_countdown
        ready = self._ready
        i = self._ready_i
        drained = 0
        try:
            while not event._triggered:
                if i < len(ready):
                    callback, value = ready[i]
                    i += 1
                    if callback is None:
                        continue
                    callback(value)
                    countdown -= 1
                    if countdown == 0:
                        countdown = _WALL_CHECK_EVERY
                        self._check_wall_deadline()
                    continue
                if not times:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)")
                when = times[0]
                if limit is not None and when > limit:
                    raise SimulationError(
                        f"awaited event did not trigger before t={limit}")
                pop(times)
                self.now = when
                ready = cohorts.pop(when)
                i = 0
                drained += 1
        finally:
            self._ready = ready
            self._ready_i = i
            self._wall_countdown = countdown
            self._cohorts_drained += drained
        if not event.ok:
            raise EventFailed(event.value)
        return event.value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def scheduler_stats(self) -> Dict[str, float]:
        """Counters describing how the tiered scheduler was exercised.

        Nothing here is written per event: timers are counted as they
        are armed and cancelled, and the run loops fold their drained-
        cohort count in when they return.  A cohort is created by each
        spill-heap push and drained by each pop, so the cohorts created
        are those drained plus those still pending.  Exact between
        dispatch calls; read from inside a callback, the count of the
        run in progress is not folded in yet.  Meant for the profiling
        CLI and perf forensics, not for simulation logic.
        """
        events = self._sequence
        created = self._cohorts_drained + len(self._times)
        timers = self._timers_created
        return {
            "events_scheduled": events,
            "cohorts_created": created,
            "cohorts_drained": self._cohorts_drained,
            "avg_cohort_size": events / created if created else 0.0,
            # Fraction of schedules that had to touch the spill heap
            # (opened a new timestamp) rather than joining a cohort.
            "spill_rate": created / events if events else 0.0,
            "peak_spill_depth": self._peak_spill,
            "timers_created": timers,
            "timers_cancelled": self._timers_cancelled,
            "cancelled_timer_ratio": (self._timers_cancelled / timers
                                      if timers else 0.0),
        }
