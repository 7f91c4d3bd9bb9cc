"""Deterministic, seeded fault injection for adversarial testing.

The paper's reliability mechanisms (§5.1 flip-bit idempotent
retransmission, §5.2.2 two-level timeouts, controller-driven failover)
are only meaningful under an adversarial network.  This module supplies
the adversary: per-link fault models that compose with the existing
:class:`~repro.netsim.link.LossModel` hook, node-level faults (switch
reboot, host pause), a :class:`ChaosSchedule` driver that injects a
scripted or randomly seeded fault sequence into any deployment, and an
:class:`InvariantChecker` that asserts the end-to-end contract: a round
either produces a result bit-identical to the no-fault run or reports
an explicit failure — never a silent wrong answer.

Every random draw made on the data path comes from the simulator's own
RNG (or a pinned per-link stream — see :func:`fault_rng`), so a faulted
run is exactly as reproducible as a lossy one: same seed, same
schedule, same bits.  Schedule *generation* uses a separate
``random.Random(seed)`` so the schedule itself is a pure function of
its seed and the topology, independent of simulation state — that is
what :meth:`ChaosSchedule.fingerprint` pins across PRs.

A link fault model is a :class:`FaultModel`: instead of the boolean
``drops`` decision it *plans* the delivery of each packet as a list of
``(extra_delay, packet)`` tuples — the empty list is a drop, two tuples
are a duplicate, a positive extra delay is reordering.  A
:class:`~repro.netsim.link.Link` consults ``plan`` (when present) inside
each packet's delivery event, exactly where it draws a loss model.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .link import Link, LossModel, NoLoss

__all__ = [
    "FaultModel",
    "Reorder",
    "Duplicate",
    "Corrupt",
    "LinkFlap",
    "CompositeFault",
    "LinkFault",
    "SwitchReboot",
    "HostPause",
    "ChaosSchedule",
    "InvariantChecker",
]

_INF = float("inf")


# ---------------------------------------------------------------------------
# link-level fault models
# ---------------------------------------------------------------------------
class FaultModel(LossModel):
    """A loss model that can also delay, duplicate, or mutate packets.

    Subclasses implement :meth:`apply`, which maps one packet to the
    list of ``(extra_delay_s, packet)`` deliveries it becomes; links
    consult :meth:`plan`, never ``drops``, at the packet's arrival (its
    delivery event), so the extra delay is added after propagation.
    Faults are active only inside the ``[start, until)`` window, judged
    at that arrival time; outside it the packet passes through untouched
    and — crucially for determinism — no RNG draw is made.
    """

    def __init__(self, start: float = 0.0, until: float = _INF):
        self.start = start
        self.until = until

    def active(self, now: float) -> bool:
        return self.start <= now < self.until

    def apply(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        raise NotImplementedError

    def plan(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        """Deliveries for ``packet``: ``[]`` drops, two entries duplicate."""
        if not self.active(link.sim.now):
            return [(0.0, packet)]
        return self.apply(packet, link)


def fault_rng(link: Link):
    """The RNG a fault draw uses for ``link``.

    By default the simulator's stream.  A harness that needs draw
    sequences independent of global event interleaving (the sharded
    runner: one simulator per shard, but the single-core reference run
    interleaves all links through one stream) pins ``link.fault_rng``
    to a dedicated per-link ``random.Random`` instead.
    """
    rng = getattr(link, "fault_rng", None)
    return rng if rng is not None else link.sim.rng


class Reorder(FaultModel):
    """Adds up to ``jitter_s`` of extra propagation delay per packet.

    With independent per-packet jitter, a later-serialized packet can
    arrive before an earlier one — the reordering that exercises the
    transport's out-of-order ACK accounting and the switch's flip-bit
    retransmission check.  ``rate`` limits the fraction of packets that
    are jittered (1.0 = every packet).
    """

    def __init__(self, jitter_s: float, rate: float = 1.0,
                 start: float = 0.0, until: float = _INF):
        super().__init__(start, until)
        if jitter_s < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.jitter_s = jitter_s
        self.rate = rate

    def apply(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        rng = fault_rng(link)
        if self.rate < 1.0 and rng.random() >= self.rate:
            return [(0.0, packet)]
        link.stats.add("reordered_pkts")
        return [(rng.random() * self.jitter_s, packet)]


class Duplicate(FaultModel):
    """Delivers a fraction ``rate`` of packets twice.

    The duplicate is a :meth:`copy` when the packet supports it, so the
    two deliveries do not alias each other's in-place switch mutations —
    this is what makes the flip-bit retransmission filter (§5.1), not
    object identity, responsible for idempotence.  With the columnar
    payload (``KVBlock``), the copy's kv slots are duplicated as whole
    column buffers, so a fault schedule that duplicates every packet no
    longer dominates the run with per-pair object construction.
    """

    def __init__(self, rate: float, start: float = 0.0, until: float = _INF):
        super().__init__(start, until)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate

    def apply(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        if fault_rng(link).random() >= self.rate:
            return [(0.0, packet)]
        link.stats.add("dup_pkts")
        dup = packet.copy() if hasattr(packet, "copy") else packet
        return [(0.0, packet), (0.0, dup)]


class Corrupt(FaultModel):
    """Flips bits in a fraction ``rate`` of packets.

    Two modes, both ending in a retransmission rather than a wrong
    answer:

    - ``"fcs"`` (default): the flip lands anywhere in the frame and the
      Ethernet FCS catches it — the frame is dropped on the wire.  This
      is the overwhelmingly common hardware outcome.
    - ``"gaid"``: the flip lands in the GAID header field *after* the
      FCS was recomputed (a soft error inside a store-and-forward hop).
      The packet is delivered with a corrupted GAID, so the switch
      admission lookup misses and the unadmitted path forwards it
      untouched; receivers ignore the unknown GAID and the sender's
      transport retransmits.  This exercises the admission-miss path
      without ever feeding corrupt data to a primitive.
    """

    def __init__(self, rate: float, mode: str = "fcs",
                 start: float = 0.0, until: float = _INF):
        super().__init__(start, until)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if mode not in ("fcs", "gaid"):
            raise ValueError(f"unknown corrupt mode {mode!r}")
        self.rate = rate
        self.mode = mode

    GAID_FLIP_BIT = 1 << 20   # far above any allocated GAID

    def apply(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        if fault_rng(link).random() >= self.rate:
            return [(0.0, packet)]
        link.stats.add("corrupt_pkts")
        if self.mode == "fcs" or not hasattr(packet, "gaid"):
            link.stats.add("wire_drops")
            return []
        # Corrupt a *copy*: the original Packet object is also the
        # sender's pending-table entry, which must stay intact for the
        # retransmission to carry the true GAID.
        mangled = packet.copy() if hasattr(packet, "copy") else packet
        mangled.gaid ^= self.GAID_FLIP_BIT
        return [(0.0, mangled)]


class LinkFlap(FaultModel):
    """The link is down (drops everything) in ``[down_at, up_at)``."""

    def __init__(self, down_at: float, up_at: float):
        if up_at < down_at:
            raise ValueError("up_at must be >= down_at")
        super().__init__(down_at, up_at)

    def apply(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        link.stats.add("flap_drops")
        link.stats.add("wire_drops")
        return []


class CompositeFault(FaultModel):
    """Chains fault models (and plain loss models) on one link.

    Each stage's output deliveries feed the next stage; extra delays
    accumulate.  A plain :class:`LossModel` stage is adapted through its
    ``drops`` decision.  Stage order is the composition order, fixed at
    construction, so the RNG draw sequence is deterministic.
    """

    def __init__(self, models: Sequence[LossModel]):
        super().__init__()
        self.models = list(models)

    def plan(self, packet: Any, link: Link) -> List[Tuple[float, Any]]:
        deliveries: List[Tuple[float, Any]] = [(0.0, packet)]
        for model in self.models:
            nxt: List[Tuple[float, Any]] = []
            if isinstance(model, FaultModel):
                for delay, pkt in deliveries:
                    for extra, out in model.plan(pkt, link):
                        nxt.append((delay + extra, out))
            else:
                for delay, pkt in deliveries:
                    if model.drops(pkt, fault_rng(link)):
                        link.stats.add("wire_drops")
                    else:
                        nxt.append((delay, pkt))
            deliveries = nxt
            if not deliveries:
                break
        return deliveries


# ---------------------------------------------------------------------------
# schedule event specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFault:
    """One timed fault window on one directed link."""

    src: str
    dst: str
    kind: str                 # "reorder" | "duplicate" | "corrupt" | "flap"
    at: float
    duration_s: float
    rate: float = 1.0
    jitter_s: float = 0.0

    _KINDS = ("reorder", "duplicate", "corrupt", "flap")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown link fault kind {self.kind!r}")

    def build(self) -> FaultModel:
        until = self.at + self.duration_s
        if self.kind == "reorder":
            return Reorder(self.jitter_s, rate=self.rate,
                           start=self.at, until=until)
        if self.kind == "duplicate":
            return Duplicate(self.rate, start=self.at, until=until)
        if self.kind == "corrupt":
            return Corrupt(self.rate, mode="gaid",
                           start=self.at, until=until)
        return LinkFlap(self.at, until)

    def canonical(self) -> str:
        return (f"link {self.src}->{self.dst} {self.kind} at={self.at!r} "
                f"dur={self.duration_s!r} rate={self.rate!r} "
                f"jitter={self.jitter_s!r}")


@dataclass(frozen=True)
class SwitchReboot:
    """Power-cycle one switch at ``at``: registers, flow state, and
    admission table are lost; the controller re-installs after
    ``failover_delay_s`` (None = the deployment's control RTT)."""

    switch: str
    at: float
    failover_delay_s: Optional[float] = None

    def canonical(self) -> str:
        return (f"reboot {self.switch} at={self.at!r} "
                f"failover={self.failover_delay_s!r}")


@dataclass(frozen=True)
class HostPause:
    """Freeze one host's packet reception for ``duration_s`` (a GC or
    scheduler stall); buffered packets flush in order on resume."""

    host: str
    at: float
    duration_s: float

    def canonical(self) -> str:
        return (f"pause {self.host} at={self.at!r} "
                f"dur={self.duration_s!r}")


# ---------------------------------------------------------------------------
# chaos schedule driver
# ---------------------------------------------------------------------------
class ChaosSchedule:
    """A timed sequence of faults injectable into any deployment.

    Build one explicitly from event specs, or draw one with
    :meth:`random`.  :meth:`install` arms the schedule on a deployment:
    link faults become (composited) loss models on the affected links,
    switch reboots and host pauses become scheduled simulator callbacks.
    Install before starting traffic — loss models must not be swapped
    mid-serialization.
    """

    def __init__(self, events: Iterable[Any]):
        self.events = list(events)

    # -- generation -----------------------------------------------------
    @classmethod
    def random(cls, seed: int, deployment: Any, t0: float, t1: float,
               n_link_faults: int = 4, n_switch_reboots: int = 0,
               n_host_pauses: int = 0,
               kinds: Sequence[str] = ("reorder", "duplicate",
                                       "corrupt", "flap")) -> "ChaosSchedule":
        """A schedule that is a pure function of (seed, topology names).

        Uses its own ``random.Random(seed)`` — never the simulator RNG —
        and sorts link names, so the same seed over the same topology
        yields the same schedule regardless of construction order or
        simulation state.  That property is pinned by the golden
        fingerprint test.
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        rng = random.Random(seed)
        span = t1 - t0
        link_keys = sorted(deployment.topology.links.keys())
        switch_names = sorted(sw.name for sw in deployment.switches)
        host_names = sorted(h.name for h in
                            list(deployment.clients) +
                            list(deployment.servers))
        events: List[Any] = []
        for _ in range(n_link_faults):
            src, dst = link_keys[rng.randrange(len(link_keys))]
            kind = kinds[rng.randrange(len(kinds))]
            at = t0 + rng.random() * span
            if kind == "flap":
                # A black-holed link heals well before the run's RTO
                # budget (MAX_ATTEMPTS) is exhausted.
                duration = span * (0.05 + 0.15 * rng.random())
            else:
                duration = span * (0.2 + 0.6 * rng.random())
            events.append(LinkFault(
                src=src, dst=dst, kind=kind, at=at, duration_s=duration,
                rate=0.05 + 0.25 * rng.random(),
                jitter_s=span * 0.1 * rng.random()))
        for _ in range(n_switch_reboots):
            events.append(SwitchReboot(
                switch=switch_names[rng.randrange(len(switch_names))],
                at=t0 + rng.random() * span))
        for _ in range(n_host_pauses):
            events.append(HostPause(
                host=host_names[rng.randrange(len(host_names))],
                at=t0 + rng.random() * span,
                duration_s=span * 0.2 * rng.random()))
        return cls(events)

    # -- identity -------------------------------------------------------
    def canonical(self) -> str:
        return "\n".join(event.canonical() for event in self.events)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical event list.

        Stable across processes and PRs: only names and ``repr``-exact
        floats go in, never object identities.
        """
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    # -- installation ---------------------------------------------------
    def install(self, deployment: Any,
                failover_delay_s: Optional[float] = None) -> None:
        """Arm every fault on ``deployment`` (idempotent per schedule).

        ``failover_delay_s`` is the default lag between a switch reboot
        and the controller's re-install (one control RTT if None);
        per-event overrides win.
        """
        sim = deployment.sim
        if failover_delay_s is None:
            failover_delay_s = deployment.cal.ctrl_rtt_s

        by_link: Dict[Tuple[str, str], List[LinkFault]] = {}
        for event in self.events:
            if isinstance(event, LinkFault):
                by_link.setdefault((event.src, event.dst), []).append(event)
        for key, specs in by_link.items():
            try:
                link = deployment.topology.links[key]
            except KeyError:
                raise KeyError(f"schedule names unknown link {key[0]}->"
                               f"{key[1]}") from None
            models: List[LossModel] = []
            if type(link.loss) is not NoLoss:
                models.append(link.loss)   # keep pre-existing loss
            models.extend(spec.build() for spec in specs)
            link.loss = CompositeFault(models)

        switches = {sw.name: sw for sw in deployment.switches}
        hosts = {h.name: h for h in
                 list(deployment.clients) + list(deployment.servers)}
        for event in self.events:
            if isinstance(event, SwitchReboot):
                switch = switches[event.switch]
                delay = (event.failover_delay_s
                         if event.failover_delay_s is not None
                         else failover_delay_s)
                sim.schedule_at(event.at, self._reboot,
                                (switch, deployment.controller, delay))
            elif isinstance(event, HostPause):
                host = hosts[event.host]
                sim.schedule_at(event.at, self._pause,
                                (host, event.duration_s))

    @staticmethod
    def _reboot(arg) -> None:
        switch, controller, delay = arg
        switch.reboot()
        switch.sim.schedule(delay, controller.handle_switch_reboot, switch)

    @staticmethod
    def _pause(arg) -> None:
        host, duration_s = arg
        host.pause(duration_s)


# ---------------------------------------------------------------------------
# invariant checking
# ---------------------------------------------------------------------------
class InvariantChecker:
    """Asserts the chaos contract over a deployment.

    Three invariant families (ISSUE tentpole):

    - **monotone simulator time**: ``sim.now`` never decreases, and no
      pending event is scheduled in the past;
    - **conservation of allocator slots**: live register regions plus
      freed regions plus the untouched bump gap is constant, and every
      switch's SRRT slot allocator agrees;
    - **end-of-round correctness** via :meth:`check_result` — a result
      is bit-identical to the expected value or the violation is
      recorded; the *caller* supplies the explicit-failure channel
      (a :class:`~repro.netsim.simulator.SimulationError` timeout).

    Violations accumulate in :attr:`violations`; tests assert the list
    is empty.
    """

    def __init__(self, deployment: Any):
        self.deployment = deployment
        self.violations: List[str] = []
        sim = deployment.sim
        self._last_now = sim.now
        self._slot_high = self._slot_positions()
        self._pool_baseline = self._pool_total()

    # -- observation ----------------------------------------------------
    def observe(self) -> None:
        """Run every invariant check once, at the current instant."""
        sim = self.deployment.sim
        now = sim.now
        if now < self._last_now:
            self._violate(f"time ran backwards: {now!r} < "
                          f"{self._last_now!r}")
        self._last_now = now
        head = sim.peek()
        if head < now:
            self._violate(f"pending event in the past: {head!r} < {now!r}")

        slots = self._slot_positions()
        if len(set(slots)) > 1:
            self._violate(f"SRRT allocators diverged across switches: "
                          f"{slots}")
        if slots and min(slots) < max(self._slot_high):
            self._violate(f"SRRT allocator moved backwards: {slots} after "
                          f"{self._slot_high}")
        self._slot_high = slots

        total = self._pool_total()
        if total != self._pool_baseline:
            self._violate(f"register pool leaked: accounted {total} slots, "
                          f"expected {self._pool_baseline}")

    def check_result(self, label: str, expected: Any, got: Any) -> bool:
        """Bit-exact result comparison; a mismatch is a silent wrong
        answer (the one outcome the system must never produce)."""
        if got == expected:
            return True
        self._violate(f"{label}: silent wrong answer: got {got!r}, "
                      f"expected {expected!r}")
        return False

    def start(self, interval_s: float) -> None:
        """Observe periodically for the rest of the run."""
        sim = self.deployment.sim

        def _loop():
            while True:
                yield sim.timeout(interval_s)
                self.observe()

        sim.process(_loop(), name="invariant-checker")

    def raise_if_violated(self) -> None:
        if self.violations:
            raise AssertionError("invariants violated:\n" +
                                 "\n".join(self.violations))

    # -- internals ------------------------------------------------------
    def _violate(self, message: str) -> None:
        self.violations.append(f"t={self.deployment.sim.now!r}: {message}")

    def _slot_positions(self) -> List[int]:
        return [sw.flow_state.next_slot
                for sw in self.deployment.switches]

    def _pool_total(self) -> int:
        """Accounted slots: live regions + freed regions + bump gap.

        Every register slot is either inside a live registration's
        region, parked on a freed list, or in the untouched gap between
        the two bump pointers — so this sum is conserved across
        reserve/release and any drift means a leak or double-release.
        """
        controller = self.deployment.controller
        pool = controller.pool
        live = 0
        seen = set()
        for registration in controller._registrations.values():
            for config in registration.configs:
                if not config.has_switch:
                    continue
                key = (config.value_region.base, config.value_region.size)
                if key in seen:
                    continue
                seen.add(key)
                live += config.value_region.size + config.counter_region.size
        freed = sum(r.size for r in pool._freed_values) + \
            sum(r.size for r in pool._freed_counters)
        gap = pool._counter_next - pool._value_next
        return live + freed + gap
