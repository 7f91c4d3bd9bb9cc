"""Nodes: the endpoints and midpoints of links.

:class:`Node` is the minimal interface the :class:`~repro.netsim.link.Link`
delivery path needs.  :class:`Host` adds a multi-core CPU service model so
that software packet processing (the host agents, the pure-DPDK baselines)
exhibits a realistic packets-per-second ceiling — the effect that makes
in-network computation win in the paper's evaluation.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.obs.tracer import TRACE

from .link import Link
from .simulator import Simulator
from .trace import Counter

__all__ = ["Node", "Host"]


class Node:
    """Base class for anything that can terminate a link."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.egress: Dict[str, Link] = {}
        self.stats = Counter()

    def attach_egress(self, link: Link) -> None:
        """Register an outgoing link, keyed by the peer node's name."""
        peer = getattr(link.dst, "name", str(link.dst))
        self.egress[peer] = link

    def link_to(self, peer_name: str) -> Link:
        try:
            return self.egress[peer_name]
        except KeyError:
            raise KeyError(
                f"{self.name} has no egress link to {peer_name!r}; "
                f"known peers: {sorted(self.egress)}") from None

    def send(self, packet: Any, peer_name: str) -> bool:
        self.stats["tx_pkts"] += 1
        link = self.egress.get(peer_name)
        if link is None:
            link = self.link_to(peer_name)   # raises the descriptive error
        return link.send(packet)

    def receive(self, packet: Any, link: Link) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host with a multi-core packet-processing CPU model.

    Every received packet costs ``rx_cpu_cost_s`` seconds on one of
    ``cores`` cores before the registered handler sees it.  Cores are
    modelled as parallel servers; when all are busy the packet waits,
    which produces the pps ceiling that motivates INC offload.

    Setting ``rx_cpu_cost_s`` to 0 makes delivery immediate (useful for
    unit tests that do not care about CPU contention).
    """

    def __init__(self, sim: Simulator, name: str, cores: int = 1,
                 rx_cpu_cost_s: float = 0.0):
        super().__init__(sim, name)
        if cores < 1:
            raise ValueError("a host needs at least one core")
        self.cores = cores
        self.rx_cpu_cost_s = rx_cpu_cost_s
        # Min-heap of the times at which each core becomes free.
        self._core_free: List[float] = [0.0] * cores
        heapify(self._core_free)
        self._handler: Optional[Callable[[Any, Link], None]] = None
        # Fault injection: while paused the host buffers arrivals and
        # flushes them, in order, on resume (a GC / scheduler stall).
        self._paused_until: Optional[float] = None
        self._pause_buffer: List[Any] = []

    def pause(self, duration_s: float) -> None:
        """Stall packet reception for ``duration_s`` from now.

        Overlapping pauses extend each other (the stall ends at the
        latest requested instant).  Transmission is unaffected — only
        the receive path freezes, like a process descheduled mid-poll.
        """
        if duration_s <= 0:
            return
        until = self.sim.now + duration_s
        if self._paused_until is None or until > self._paused_until:
            self._paused_until = until
            self.stats.add("pauses")
            if TRACE.enabled:
                TRACE.instant("host.pause", self.sim.now, self.name,
                              (duration_s,))
            self.sim.schedule_at(until, self._resume, until)

    def _resume(self, when: float) -> None:
        if self._paused_until != when:   # superseded by a longer pause
            return
        self._paused_until = None
        buffered, self._pause_buffer = self._pause_buffer, []
        for packet, link in buffered:
            self.receive(packet, link)

    def set_handler(self, handler: Callable[[Any, Link], None]) -> None:
        """Install the upcall invoked for every processed packet."""
        self._handler = handler

    def receive(self, packet: Any, link: Link) -> None:
        if self._paused_until is not None:
            self._pause_buffer.append((packet, link))
            return
        self.stats["rx_pkts"] += 1
        cost = self.rx_cpu_cost_s
        if cost <= 0.0:
            self._dispatch((packet, link))
            return
        core_free = self._core_free
        free_at = heappop(core_free)
        sim = self.sim
        now = sim.now
        start = now if now > free_at else free_at
        done = start + cost
        heappush(core_free, done)
        sim.schedule(done - now, self._dispatch, (packet, link))
        if TRACE.enabled:
            TRACE.record("host.cpu", start, done, self.name)

    def _dispatch(self, pair) -> None:
        packet, link = pair
        stats = self.stats
        stats["processed_pkts"] += 1
        if self._handler is None:
            stats.add("dropped_no_handler")
            return
        self._handler(packet, link)

    def run_on_core(self, cost_s: float, fn: Callable[[Any], None],
                    arg: Any = None) -> None:
        """Charge ``cost_s`` of core time, then call ``fn(arg)``.

        Used by agents for work that costs more than the per-packet
        baseline (e.g. executing INC primitives in software on the
        fallback path).  Contends for the same cores as packet reception.
        """
        if cost_s <= 0.0:
            fn(arg)
            return
        core_free = self._core_free
        free_at = heappop(core_free)
        sim = self.sim
        now = sim.now
        start = now if now > free_at else free_at
        done = start + cost_s
        heappush(core_free, done)
        sim.schedule(done - now, fn, arg)
        if TRACE.enabled:
            TRACE.record("host.cpu", start, done, self.name)

    def cpu_utilisation_until(self, horizon: float) -> float:
        """Fraction of core-time consumed, assuming no further arrivals."""
        if horizon <= 0:
            return 0.0
        busy = sum(min(t, horizon) for t in self._core_free)
        return busy / (self.cores * horizon)
