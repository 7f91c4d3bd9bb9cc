"""Event primitives for the discrete-event simulator.

The simulator follows a SimPy-like model: *processes* are Python
generators that ``yield`` :class:`Event` objects and are resumed when the
event triggers.  Events are triggered either explicitly
(:meth:`Event.succeed` / :meth:`Event.fail`) or by the simulator clock
(:class:`Timeout`).

Everything here is deliberately independent of networking so the same
loop can drive switches, host agents, and application processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .simulator import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "Interrupt",
    "EventFailed",
]


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value given to
    :meth:`~repro.netsim.simulator.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class EventFailed(Exception):
    """Raised inside a process when a yielded event failed."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*, becomes *triggered* exactly once, and then
    invokes its callbacks in registration order.  Callbacks added after
    triggering are invoked immediately (this keeps ``yield`` on an
    already-completed event race-free).
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._ok = True
        self.value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError("event has already been triggered")
        self._triggered = True
        self._ok = True
        self.value = value
        self._dispatch()
        return self

    def fail(self, cause: Any = None) -> "Event":
        """Trigger the event as failed; waiting processes see an exception."""
        if self._triggered:
            raise RuntimeError("event has already been triggered")
        self._triggered = True
        self._ok = False
        self.value = cause
        self._dispatch()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._triggered:
            callback(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after ``delay`` simulated seconds."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        sim.call_later(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self._triggered:
            self.succeed(value)


class AllOf(Event):
    """Triggers when every child event has triggered.

    ``value`` is a dict mapping each child event to its value.  Fails as
    soon as any child fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        if not self.events:
            raise ValueError("condition requires at least one event")
        self._remaining = len(self.events)
        for event in self.events:
            event.add_callback(self._child_triggered)

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())

    def _results(self) -> dict:
        return {e: e.value for e in self.events if e.triggered}
