"""Conservative time-synced execution of a partitioned fabric.

The protocol is conservative null-message style (SimBricks' fixed
link-latency synchronization, specialized to rounds):

* The coordinator holds each shard's clock and, after every round, its
  *earliest-action bound*: nothing can happen in shard ``s`` before
  ``E_s = min(next local event, earliest pending boundary delivery)``,
  relaxed transitively over the channel graph (Bellman-Ford over
  positive lookaheads — a chain of cross-shard wakeups can reach ``s``
  below its local bound).  Each round, shard ``s`` advances to
  ``H_s = max(clock_s, min(until, min over in-channels (E_src + L)))``.
  Because the bounds are *action* times, not clocks, a single barrier
  can prove many lookahead windows safe at once: quiet phases and
  far-future traffic cost one barrier instead of ``gap / L`` of them
  (the adaptive multi-round horizon; soundness in DESIGN.md §4.10).
* Each shard injects the messages the previous round produced, runs to
  its horizon, and drains its egress outboxes into one *frame* per
  destination shard.  Every shard lives in this process, so a frame is
  a plain list handed to its destination's next round; its logical
  size (`repro.shard.codec.frame_nbytes`) is the transport telemetry.

Determinism: shard decomposition, per-shard seeds, channel order, and
injection order are all pure functions of ``(scenario, partition)``;
rounds are lockstep; frames preserve per-channel emission order and
are injected in ascending source-shard order.  Lossless scenarios are
result-identical to the unsharded single simulator (see
``results_identical``).
"""

from __future__ import annotations

import cProfile
import os
import random
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim import CompositeFault, NoLoss, Simulator
from repro.netsim.faults import LinkFault
from repro.obs.capture import ShardObs, capture_shards
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import TRACE

from .codec import frame_nbytes
from .fabric import ShardFabric, build_fabric, compute_routes
from .partition import Partition, PartitionError, partition_structure
from .spec import ShardScenario

__all__ = ["ShardRunResult", "UnshardedRunResult", "run_sharded",
           "run_unsharded", "results_identical"]

# Messages on a channel: (cut_link_name, deliver_time, packet).
_Message = Tuple[str, float, Any]

_INF = float("inf")


def _shard_seed(seed: int, shard_id: int) -> int:
    # Distinct per-shard streams, pure function of (seed, shard).  The
    # RNG only feeds loss/fault draws, which are intra-shard by policy.
    return (seed * 1_000_003 + shard_id + 1) & 0x7FFFFFFF


def _fingerprint(flows: Dict[int, Tuple[int, int, float, float]],
                 links: Dict[str, Dict[str, float]]) -> str:
    """SHA-256 over repr-exact per-flow records and link counters —
    stable across processes, byte-sensitive to any timing change."""
    lines: List[str] = []
    for flow_id in sorted(flows):
        pkts, nbytes, first, last = flows[flow_id]
        lines.append(f"flow {flow_id} pkts={pkts} bytes={nbytes} "
                     f"first={float(first).hex()} "
                     f"last={float(last).hex()}")
    for name in sorted(links):
        counters = links[name]
        body = " ".join(f"{key}={counters[key]!r}"
                        for key in sorted(counters))
        lines.append(f"link {name} {body}")
    return sha256("\n".join(lines).encode()).hexdigest()


def _install_chaos(fabric: ShardFabric, scenario: ShardScenario,
                   shard_of: Optional[Dict[str, int]]) -> None:
    """Arm the scenario's link faults on the links this fabric owns.

    Only :class:`LinkFault` events are meaningful on the flow fabric,
    and every fault must be intra-shard — the boundary lookahead assumes
    un-jittered cut links, and cross-shard RNG draws would break the
    single-stream determinism story.
    """
    if scenario.chaos is None:
        return
    by_link: Dict[Tuple[str, str], List[LinkFault]] = {}
    for event in scenario.chaos.events:
        if not isinstance(event, LinkFault):
            raise PartitionError(
                f"shard fabric chaos supports link faults only, got "
                f"{type(event).__name__}")
        if shard_of is not None and \
                shard_of[event.src] != shard_of[event.dst]:
            raise PartitionError(
                f"chaos fault on cut link {event.src}->{event.dst}; "
                f"boundary links must stay lossless (they carry the "
                f"conservative lookahead)")
        by_link.setdefault((event.src, event.dst), []).append(event)
    for key, specs in by_link.items():
        link = fabric.topo.links.get(key)
        if link is None:
            continue                    # owned by another shard
        models = []
        if type(link.loss) is not NoLoss:
            models.append(link.loss)
        models.extend(spec.build() for spec in specs)
        link.loss = CompositeFault(models)
        # Per-link draw stream, a pure function of (scenario seed, link
        # name): the single-simulator reference interleaves every
        # faulted link through one global RNG, a sharded run cannot —
        # pinning one stream per link makes both draw identically.
        link.fault_rng = random.Random(
            (scenario.seed * 1_000_003
             + zlib.crc32(f"{key[0]}->{key[1]}".encode())) & 0x7FFFFFFF)


class _Shard:
    """One shard's live state plus its round step."""

    def __init__(self, scenario: ShardScenario, partition: Partition,
                 shard_id: int, routes=None,
                 profile_path: Optional[str] = None,
                 capture: bool = False):
        self.shard_id = shard_id
        self.sim = Simulator(seed=_shard_seed(scenario.seed, shard_id))
        # The simulator just opened a tracer epoch if tracing is armed;
        # that epoch is this shard's lane in the process-wide ring —
        # capture_shards() rewrites it to the stable merged-trace pid.
        self.trace_epoch = TRACE.epoch if TRACE.enabled else 0
        shard_map = partition.shard_map()
        self.fabric = build_fabric(
            self.sim, scenario.structure, cal=scenario.cal,
            partition=partition, shard_id=shard_id, routes=routes)
        _install_chaos(self.fabric, scenario, shard_map)
        self.fabric.install_workload(scenario.flows)
        self.work_s = 0.0
        self.frames_sent = 0
        self.frame_bytes = 0
        self.profile_path = profile_path
        self._profiler = cProfile.Profile() if profile_path else None
        self.registry: Optional[MetricsRegistry] = None
        self.obs_sync: Dict[str, Any] = {}
        if capture:
            registry = MetricsRegistry(f"shard{shard_id}")
            registry.register("scheduler", self.sim.scheduler_stats,
                              snapshot=lambda fn: dict(fn()))
            for name in self.fabric.egress_names:
                registry.register(f"egress.{name}",
                                  self.fabric.egress[name].stats)
            for name in sorted(self.fabric.ingress):
                registry.register(f"ingress.{name}",
                                  self.fabric.ingress[name].stats)
            # Deterministic sync summary only (simulated clock, event
            # and frame counts) — wall-time accounting stays out so a
            # capture is byte-equal across runs.
            registry.register("sync", self.obs_sync)
            self.registry = registry

    def run_round(self, horizon: float, inbound: List[_Message]
                  ) -> Dict[int, List[_Message]]:
        """Inject, run to ``horizon``, drain.  Returns the outbound
        messages grouped by destination shard (non-empty groups only)."""
        start = perf_counter()
        profiler = self._profiler
        if profiler is not None:
            profiler.enable()
        if self.trace_epoch and TRACE.enabled:
            # Unlike sequential single-sim runs, the shards interleave
            # live simulators in one process — restore this shard's
            # epoch so its records land in its own lane.  Pure record
            # stamping; no simulator state involved.
            TRACE.epoch = self.trace_epoch
        try:
            if inbound:
                ingress = self.fabric.ingress
                for link_name, when, packet in inbound:
                    ingress[link_name].inject(when, packet)
            self.sim.run(until=horizon)
            outmap = self.fabric.drain_boundary()
            for messages in outmap.values():
                self.frames_sent += 1
                self.frame_bytes += frame_nbytes(len(messages))
        finally:
            if profiler is not None:
                profiler.disable()
        self.work_s += perf_counter() - start
        return outmap

    def finish(self) -> None:
        if self._profiler is not None:
            self._profiler.dump_stats(self.profile_path)
        if self.registry is not None:
            self.obs_sync.update(
                clock_s=self.sim.now, events=self.sim._sequence,
                frames_sent=self.frames_sent,
                frame_bytes=self.frame_bytes)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class ShardRunResult:
    """Merged outcome of a sharded run plus its sync accounting."""

    flows: Dict[int, Tuple[int, int, float, float]]
    link_stats: Dict[str, Dict[str, float]]
    fingerprint: str
    chaos_fingerprint: Optional[str]
    n_shards: int
    rounds: int
    until: float
    shard_clocks: List[float]
    events_per_shard: List[int]
    scheduler_stats: List[Dict[str, float]]
    work_s: List[float]
    # Zero per shard: every shard runs in this process, so none waits
    # at a barrier.  Kept for benchmarks/e2e/workloads.py, which sums it.
    barrier_wait_s: List[float]
    wall_s: float
    messages_relayed: int = 0
    frames_sent: int = 0
    transport_bytes: int = 0
    horizon_rounds_skipped: int = 0
    # Observability side-band: the per-shard scheduler/sync metrics
    # namespace (always present) and, when the run executed with the
    # flight recorder armed, the merged-trace input (shard captures +
    # coordinator round telemetry).  Excluded from comparisons — they
    # describe the run, they are not part of its result.
    registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False)
    obs: Optional[ShardObs] = field(
        default=None, repr=False, compare=False)

    @property
    def total_events(self) -> int:
        return sum(self.events_per_shard)

    @property
    def barriers_per_sec(self) -> float:
        return self.rounds / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def bytes_per_round(self) -> float:
        """Logical transport payload per barrier (codec frame bytes)."""
        return self.transport_bytes / self.rounds if self.rounds else 0.0

    @property
    def barriers_per_sim_sec(self) -> float:
        """Synchronization density: barriers per simulated second."""
        return self.rounds / self.until if self.until > 0 else 0.0

    def comparable_state(self) -> Dict[str, Any]:
        """Everything a rerun of the scenario must reproduce byte for
        byte: results, fingerprints, per-shard event totals and scheduler
        stats, the barrier count, the final clocks, and the logical
        transport telemetry — all wall-time accounting excluded."""
        return {
            "flows": self.flows,
            "link_stats": self.link_stats,
            "fingerprint": self.fingerprint,
            "chaos_fingerprint": self.chaos_fingerprint,
            "n_shards": self.n_shards,
            "rounds": self.rounds,
            "shard_clocks": self.shard_clocks,
            "events_per_shard": self.events_per_shard,
            "scheduler_stats": self.scheduler_stats,
            "messages_relayed": self.messages_relayed,
            "frames_sent": self.frames_sent,
            "transport_bytes": self.transport_bytes,
            "horizon_rounds_skipped": self.horizon_rounds_skipped,
        }


@dataclass
class UnshardedRunResult:
    """Reference single-simulator run of the same scenario."""

    flows: Dict[int, Tuple[int, int, float, float]]
    link_stats: Dict[str, Dict[str, float]]
    fingerprint: str
    events: int
    scheduler_stats: Dict[str, float]
    wall_s: float


def results_identical(sharded: ShardRunResult,
                      unsharded: UnshardedRunResult) -> bool:
    """Result-level equality: same per-flow records, same (merged) link
    counters, same fingerprint.  Event *counts* are not compared here —
    the boundary stubs restructure events across simulators by design."""
    return (sharded.flows == unsharded.flows
            and sharded.link_stats == unsharded.link_stats
            and sharded.fingerprint == unsharded.fingerprint)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _coordinate(shards: List[_Shard], partition: Partition, until: float,
                log: Optional[List[Dict[str, Any]]] = None
                ) -> Tuple[int, int, int]:
    """Run rounds until every clock reaches ``until`` and a full round
    moves no messages.  Returns (rounds, messages_relayed,
    horizon_rounds_skipped).  When ``log`` is given (traced runs), one
    telemetry dict per round is appended — the coordinator-side view
    (pre-round clocks, granted horizons, relaxed earliest-action bases,
    frame/byte traffic, cumulative skips) that the merge exporter turns
    into barrier spans and counter tracks.

    Horizons are *adaptive*: shard ``s`` cannot act before
    ``E_s = min(peek_s, earliest pending boundary delivery to s)``,
    and a chain of cross-shard wakeups cannot reach it earlier than the
    Bellman-Ford fixed point of ``E_s = min(E_s, min_q (E_q + L_qs))``
    (all lookaheads positive, so <= n passes converge).  Any future
    boundary delivery into ``dst`` is then ``>= E_src + L``, so one
    barrier may advance ``dst`` through every lookahead window below
    that bound — ``k`` quiet windows cost one barrier, not ``k``.
    """
    n = partition.n_shards
    shard_range = range(n)
    in_channels: List[List[Tuple[int, float]]] = [[] for _ in shard_range]
    for (src_shard, dst_shard), bound in partition.lookahead:
        in_channels[dst_shard].append((src_shard, bound))

    channel_bounds = [(src, dst, la)
                      for (src, dst), la in partition.lookahead]
    min_la = partition.min_lookahead
    track_skips = 0.0 < min_la < _INF

    clocks = [0.0] * n
    peeks = [0.0] * n
    inbound_min = [_INF] * n
    inboxes: List[List[_Message]] = [[] for _ in shard_range]
    rounds = 0
    relayed = 0
    skipped = 0
    while True:
        # Earliest-action bounds, relaxed over the channel graph.
        bases = [peek if peek < pending else pending
                 for peek, pending in zip(peeks, inbound_min)]
        for _ in shard_range:
            changed = False
            for src, dst, la in channel_bounds:
                relaxed = bases[src] + la
                if relaxed < bases[dst]:
                    bases[dst] = relaxed
                    changed = True
            if not changed:
                break
        horizons: List[float] = []
        for sid in shard_range:
            bound = until
            for src, la in in_channels[sid]:
                relaxed = bases[src] + la
                if relaxed < bound:
                    bound = relaxed
            clock = clocks[sid]
            horizons.append(bound if bound > clock else clock)
        if rounds and track_skips:
            # Telemetry: windows this barrier proved safe beyond the
            # single-window BSP advance (0 when any shard moved by just
            # one lookahead; pure arithmetic, so identical across runs).
            least = _INF
            for horizon, clock in zip(horizons, clocks):
                advance = horizon - clock
                if 0.0 < advance < least:
                    least = advance
            if least < _INF and least > min_la:
                extra = int(least / min_la) - 1
                if extra > 0:
                    skipped += extra
        # Ascending shard order: a destination's inbox concatenates its
        # sources' frames lowest source first.
        routed: List[List[_Message]] = [[] for _ in shard_range]
        inbound_min = [_INF] * n
        moved = 0
        frames = 0
        frame_bytes = 0
        for sid in shard_range:
            shard = shards[sid]
            outmap = shard.run_round(horizons[sid], inboxes[sid])
            peeks[sid] = shard.sim.peek()
            for dst, messages in outmap.items():
                count = len(messages)
                moved += count
                earliest = min(record[1] for record in messages)
                if earliest < inbound_min[dst]:
                    inbound_min[dst] = earliest
                routed[dst].extend(messages)
                if log is not None:
                    frames += 1
                    frame_bytes += frame_nbytes(count)
        inboxes = routed
        rounds += 1
        relayed += moved
        if log is not None:
            log.append({
                "round": rounds,
                "clocks": list(clocks),
                "horizons": list(horizons),
                "bases": [base if base < _INF else None
                          for base in bases],
                "moved": moved,
                "frames": frames,
                "bytes": frame_bytes,
                "skipped": skipped,
            })
        clocks = horizons
        if moved == 0 and all(clock >= until for clock in clocks):
            return rounds, relayed, skipped


def run_sharded(scenario: ShardScenario,
                partition: Optional[Partition] = None,
                n_shards: Optional[int] = None,
                workers: int = 1,
                profile_dir: Optional[str] = None) -> ShardRunResult:
    """Execute ``scenario`` sharded, every shard in this process.

    ``workers`` must be 1 (the only value callers pass); ``profile_dir``
    collects one cProfile dump per shard, ``shard<N>.prof``.
    """
    if workers != 1:
        raise ValueError(f"workers={workers!r}: sharded runs execute in "
                         f"one process, so workers must be 1")
    if partition is None:
        if n_shards is None:
            raise ValueError("pass a partition or n_shards")
        partition = partition_structure(scenario.structure, n_shards,
                                        cal=scenario.cal)

    def profile_for(sid: int) -> Optional[str]:
        if profile_dir is None:
            return None
        os.makedirs(profile_dir, exist_ok=True)
        return os.path.join(profile_dir, f"shard{sid}.prof")

    # Capture piggybacks on the armed process-wide recorder: a traced
    # run (TRACE armed by the caller) buckets each shard's records into
    # its own capture at finish.
    capture = TRACE.enabled

    start = perf_counter()
    routes = compute_routes(scenario.structure)
    shards = [_Shard(scenario, partition, sid, routes=routes,
                     profile_path=profile_for(sid), capture=capture)
              for sid in range(partition.n_shards)]
    rounds_log: Optional[List[Dict[str, Any]]] = [] if capture else None
    rounds, relayed, skipped = _coordinate(shards, partition,
                                           scenario.until, log=rounds_log)
    for shard in shards:
        shard.finish()
    captures = None
    if capture:
        captures = capture_shards(
            {shard.shard_id: shard.trace_epoch for shard in shards}, TRACE,
            {shard.shard_id: shard.registry.snapshot_nested()
             for shard in shards})
    wall = perf_counter() - start

    flows: Dict[int, Tuple[int, int, float, float]] = {}
    links: Dict[str, Dict[str, float]] = {}
    for shard in shards:
        flows.update(shard.fabric.flow_results())
        for name, counters in shard.fabric.link_results().items():
            # Cut links report one half from each side; key-wise sums
            # reproduce the unsharded link's counters.
            if name in links:
                merged = links[name]
                for key, value in counters.items():
                    merged[key] = merged.get(key, 0) + value
            else:
                links[name] = dict(counters)

    clocks = [shard.sim.now for shard in shards]
    events = [shard.sim._sequence for shard in shards]
    scheduler_stats = [shard.sim.scheduler_stats() for shard in shards]
    work_s = [shard.work_s for shard in shards]
    frames_sent = sum(shard.frames_sent for shard in shards)
    transport_bytes = sum(shard.frame_bytes for shard in shards)
    transport_totals: Dict[str, Any] = {
        "rounds": rounds,
        "messages_relayed": relayed,
        "frames_sent": frames_sent,
        "transport_bytes": transport_bytes,
        "horizon_rounds_skipped": skipped,
    }
    # The sharded-run metrics namespace (always built, traced or not):
    # per-shard scheduler stats and sync accounting become first-class
    # registry entries so the metrics JSONL / snapshot-diff cover
    # sharded runs like any single-simulator deployment.
    registry = MetricsRegistry("shard-run")
    for sid, shard in enumerate(shards):
        registry.register(f"shard{sid}.scheduler",
                          dict(scheduler_stats[sid]))
        registry.register(f"shard{sid}.sync", {
            "clock_s": clocks[sid],
            "events": events[sid],
            "work_s": work_s[sid],
            "frames_sent": shard.frames_sent,
            "frame_bytes": shard.frame_bytes})
    registry.register("transport", transport_totals)

    obs: Optional[ShardObs] = None
    if captures is not None:
        obs = ShardObs(
            captures=captures,
            rounds=rounds_log or [],
            shards={sid: {"events": events[sid],
                          "clock_s": clocks[sid],
                          "work_s": work_s[sid]}
                    for sid in range(len(shards))},
            transport=dict(transport_totals))

    return ShardRunResult(
        flows=flows,
        link_stats=links,
        fingerprint=_fingerprint(flows, links),
        chaos_fingerprint=scenario.chaos_fingerprint(),
        n_shards=partition.n_shards,
        rounds=rounds,
        until=scenario.until,
        shard_clocks=clocks,
        events_per_shard=events,
        scheduler_stats=scheduler_stats,
        work_s=work_s,
        barrier_wait_s=[0.0] * len(shards),
        wall_s=wall,
        messages_relayed=relayed,
        frames_sent=frames_sent,
        transport_bytes=transport_bytes,
        horizon_rounds_skipped=skipped,
        registry=registry,
        obs=obs)


def run_unsharded(scenario: ShardScenario) -> UnshardedRunResult:
    """The reference run: whole structure, one simulator, one core."""
    start = perf_counter()
    sim = Simulator(seed=scenario.seed)
    fabric = build_fabric(sim, scenario.structure, cal=scenario.cal)
    _install_chaos(fabric, scenario, shard_of=None)
    fabric.install_workload(scenario.flows)
    sim.run(until=scenario.until)
    wall = perf_counter() - start
    flows = fabric.flow_results()
    links = fabric.link_results()
    return UnshardedRunResult(
        flows=flows,
        link_stats=links,
        fingerprint=_fingerprint(flows, links),
        events=sim._sequence,
        scheduler_stats=sim.scheduler_stats(),
        wall_s=wall)
