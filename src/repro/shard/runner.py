"""Conservative time-synced execution of a partitioned fabric.

The protocol is conservative null-message style (SimBricks' fixed
link-latency synchronization, specialized to rounds) over a zero-copy
shard interconnect:

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
  out-channel.  With ``workers>1`` frames travel through per-channel
  shared-memory slots (`repro.shard.transport`) packed by the binary
  codec (`repro.shard.codec`) — no pickle on the hot path — while the
  pipes carry only tiny control words (horizons, peeks, per-channel
  counts and earliest-delivery bounds).  ``transport="pipe"`` — also the
  automatic fallback on hosts without POSIX shm — sends the frames
  pickled over the pipes instead; ``workers=1`` stays in-process with
  plain calls.  All three paths run the identical protocol.

Determinism: shard decomposition, per-shard seeds, channel order, and
injection order are all pure functions of ``(scenario, partition)``;
rounds are lockstep; frames preserve per-channel emission order and
are injected in ascending source-shard order.  Hence ``workers=N`` is
byte-identical to ``workers=1`` under *either* transport — same
per-shard event counts, same scheduler stats, same fingerprints, same
frame/byte telemetry — and lossless scenarios are result-identical to
the unsharded single simulator (see ``results_identical``).
"""

from __future__ import annotations

import cProfile
import os
import random
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from multiprocessing import get_context
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim import CompositeFault, NoLoss, Simulator
from repro.netsim.faults import LinkFault
from repro.obs.capture import ShardCapture, ShardObs, capture_shards
from repro.obs.registry import MetricsRegistry, keep_registries
from repro.obs.tracer import TRACE

from .codec import CodecTables, decode_frame, encode_frame, frame_nbytes
from .fabric import ShardFabric, build_fabric, compute_routes
from .partition import Partition, PartitionError, partition_structure
from .spec import ShardScenario
from .transport import ShmChannelBus, TRANSPORTS

__all__ = ["WORKERS_ENV", "default_workers", "ShardRunResult",
           "UnshardedRunResult", "ShardWorkerDied", "run_sharded",
           "run_unsharded", "results_identical"]

WORKERS_ENV = "REPRO_SHARD_WORKERS"

# Messages on a channel: (cut_link_name, deliver_time, packet).
_Message = Tuple[str, float, Any]

_INF = float("inf")


class ShardWorkerDied(RuntimeError):
    """A ``workers>1`` shard worker process ended without reporting:
    killed by a signal, or gone before it could send its error.
    ``round`` is the last round the coordinator started (0 while the
    workers start up); ``exitcode`` is the process's exit code, negative
    for a signal, None if it had not exited yet."""

    def __init__(self, worker: int, round: int, exitcode: Optional[int]):
        super().__init__(f"shard worker {worker} died in round {round} "
                         f"(exit code {exitcode})")
        self.worker = worker
        self.round = round
        self.exitcode = exitcode


def default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


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


class _ChannelMap:
    """Channel ids and per-shard adjacency, identical in every process
    (pure function of the partition's sorted channel table)."""

    def __init__(self, partition: Partition):
        pairs = [pair for pair, _links in partition.channels]
        self.pairs: Tuple[Tuple[int, int], ...] = tuple(pairs)
        self.dst_of: Dict[int, int] = {
            i: pair[1] for i, pair in enumerate(pairs)}
        # in_channels[sid]: [(src_shard, channel_id)] ascending by src —
        # the injection order every pool reproduces.
        self.in_channels: Dict[int, List[Tuple[int, int]]] = {}
        # out_chan[sid]: dst_shard -> channel_id
        self.out_chan: Dict[int, Dict[int, int]] = {}
        for i, (src, dst) in enumerate(pairs):
            self.in_channels.setdefault(dst, []).append((src, i))
            self.out_chan.setdefault(src, {})[dst] = i
        for chans in self.in_channels.values():
            chans.sort()


class _ShardWorker:
    """One shard's live state plus its round step; used verbatim by the
    in-process pool and inside subprocess workers."""

    def __init__(self, scenario: ShardScenario, partition: Partition,
                 shard_id: int, routes=None,
                 profile_path: Optional[str] = None,
                 capture: bool = False):
        self.shard_id = shard_id
        self.sim = Simulator(seed=_shard_seed(scenario.seed, shard_id))
        # The simulator just opened a tracer epoch if tracing is armed;
        # that epoch is this shard's lane in the process-local ring —
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
            # capture is byte-equal across pools and transports.
            registry.register("sync", self.obs_sync)
            self.registry = registry

    def run_round(self, horizon: float, inbound: List[_Message]
                  ) -> Tuple[Dict[int, List[_Message]], float,
                             Dict[int, Tuple[int, float]]]:
        """Inject, run to ``horizon``, drain.  Returns the per-channel
        outbound groups, the post-run ``peek``, and the control meta
        ``{dst_shard: (count, earliest deliver time)}`` the coordinator
        steers adaptive horizons with."""
        start = perf_counter()
        profiler = self._profiler
        if profiler is not None:
            profiler.enable()
        if self.trace_epoch and TRACE.enabled:
            # Unlike sequential single-sim runs, a pool interleaves
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
            meta: Dict[int, Tuple[int, float]] = {}
            if outmap:
                for dst, messages in outmap.items():
                    count = len(messages)
                    meta[dst] = (count,
                                 min(record[1] for record in messages))
                    self.frames_sent += 1
                    self.frame_bytes += frame_nbytes(count)
        finally:
            if profiler is not None:
                profiler.disable()
        self.work_s += perf_counter() - start
        return outmap, self.sim.peek(), meta

    def finish(self) -> Dict[str, Any]:
        if self._profiler is not None:
            self._profiler.dump_stats(self.profile_path)
        if self.registry is not None:
            self.obs_sync.update(
                clock_s=self.sim.now, events=self.sim._sequence,
                frames_sent=self.frames_sent,
                frame_bytes=self.frame_bytes)
        return {
            "flows": self.fabric.flow_results(),
            "links": self.fabric.link_results(),
            "clock": self.sim.now,
            "events": self.sim._sequence,
            "scheduler_stats": self.sim.scheduler_stats(),
            "work_s": self.work_s,
            "frames_sent": self.frames_sent,
            "frame_bytes": self.frame_bytes,
        }


# ---------------------------------------------------------------------------
# worker pools
# ---------------------------------------------------------------------------
class _InProcessPool:
    """``workers=1``: every shard lives in this process — no subprocess,
    no serialization, same protocol, same per-channel frame accounting."""

    transport = "inproc"
    shm_spills = 0

    def __init__(self, scenario, partition, profile_for,
                 capture: bool = False):
        routes = compute_routes(scenario.structure)
        self.capture = capture
        self.workers = {
            sid: _ShardWorker(scenario, partition, sid, routes=routes,
                              profile_path=profile_for(sid),
                              capture=capture)
            for sid in range(partition.n_shards)}
        self._order = sorted(self.workers)
        self._inboxes: Dict[int, List[_Message]] = {
            sid: [] for sid in self.workers}

    def run_round(self, horizons):
        reports = {}
        inboxes = self._inboxes
        routed: Dict[int, List[_Message]] = {sid: []
                                             for sid in self._order}
        # Ascending shard order: a destination's inbox concatenates its
        # sources' frames lowest source first — the same order the shm
        # readers walk their in-channels.
        for sid in self._order:
            outmap, peek, meta = self.workers[sid].run_round(
                horizons[sid], inboxes[sid])
            reports[sid] = (peek, meta)
            if outmap:
                for dst, messages in outmap.items():
                    routed[dst].extend(messages)
        self._inboxes = routed
        return reports

    def finish(self):
        payloads = {sid: worker.finish()
                    for sid, worker in sorted(self.workers.items())}
        for payload in payloads.values():
            payload["barrier_wait_s"] = 0.0
        if self.capture:
            _attach_captures(self.workers, payloads)
        return payloads

    def close(self):
        pass


def _attach_captures(workers: Dict[int, _ShardWorker],
                     payloads: Dict[int, Dict[str, Any]]) -> None:
    """Bucket this process's tracer ring into per-shard captures and
    attach the wire form to each shard's finish payload.  Used both by
    the in-process pool (one shared ring, every shard) and inside each
    forked worker (its own ring, its resident shards) — the capture a
    shard ships is byte-identical either way."""
    metrics = {sid: worker.registry.snapshot_nested()
               for sid, worker in workers.items()
               if worker.registry is not None}
    captures = capture_shards(
        {sid: worker.trace_epoch for sid, worker in workers.items()},
        TRACE, metrics)
    for sid, cap in captures.items():
        payloads[sid]["obs"] = cap.to_wire()


def _subprocess_main(conn, scenario, partition, shard_ids,
                     profile_paths, transport, bus, capture,
                     trace_capacity) -> None:
    try:
        if capture:
            # Fork inherited the parent's armed recorder *and* a copy
            # of its buffer — restart for a clean per-worker ring (and
            # drop inherited registry collection) before any simulator
            # opens an epoch, so only this worker's shards record here.
            TRACE.clear()
            keep_registries(False)
            TRACE.start(trace_capacity)
        routes = compute_routes(scenario.structure)
        workers = {sid: _ShardWorker(scenario, partition, sid,
                                     routes=routes,
                                     profile_path=profile_paths.get(sid),
                                     capture=capture)
                   for sid in shard_ids}
        shm = transport == "shm"
        tables = CodecTables(scenario.structure, partition) if shm \
            else None
        channels = _ChannelMap(partition)
        conn.send(("ready", None))
        # Per-shard idle accounting: everything between one shard's
        # round work ending and its next round work starting — pipe
        # waits plus co-resident shards' run time — is that shard's
        # barrier wait.  (PR 8 charged the whole worker's pipe wait to
        # every shard it hosted, which is why BENCH_simcore.json showed
        # shards 4-7 repeating shards 0-3's values.)
        last_end = {sid: perf_counter() for sid in shard_ids}
        idle = {sid: 0.0 for sid in shard_ids}
        round_no = 0
        while True:
            try:
                command, payload = conn.recv()
            except EOFError:          # the coordinator gave the run up
                return
            if command == "round":
                round_no += 1
                out = {}
                for sid in sorted(payload):
                    horizon, extra = payload[sid]
                    if shm:
                        inbound: List[_Message] = []
                        for _src, chan in channels.in_channels.get(sid,
                                                                   ()):
                            messages = bus.read_frame(chan, round_no - 1,
                                                      tables)
                            if messages is None and chan in extra:
                                messages = decode_frame(extra[chan],
                                                        tables)
                            if messages:
                                inbound.extend(messages)
                    else:
                        inbound = extra
                    start = perf_counter()
                    idle[sid] += start - last_end[sid]
                    outmap, peek, meta = workers[sid].run_round(horizon,
                                                                inbound)
                    last_end[sid] = perf_counter()
                    if shm:
                        out_chan = channels.out_chan.get(sid, {})
                        spills = {}
                        for dst, messages in outmap.items():
                            chan = out_chan[dst]
                            if not bus.write_frame(chan, round_no,
                                                   messages, tables):
                                spills[chan] = encode_frame(messages,
                                                            tables)
                        out[sid] = (peek, meta, spills)
                    else:
                        out[sid] = (peek, meta, outmap)
                conn.send(("round", out))
            elif command == "finish":
                results = {}
                for sid, worker in sorted(workers.items()):
                    result = worker.finish()
                    result["barrier_wait_s"] = idle[sid]
                    results[sid] = result
                if capture:
                    _attach_captures(workers, results)
                conn.send(("finish", results))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown command {command!r}")
    except Exception as exc:  # pragma: no cover - crash reporting
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        if bus is not None:
            bus.close()


class _SubprocessPool:
    """``workers>1``: shards spread round-robin over forked workers.

    Frames travel worker-to-worker through the shared-memory channel
    bus (created *before* forking, so children inherit the mapping);
    the duplex pipes carry control words — horizons and spilled frames
    down, peeks / per-channel meta / spills up.  With
    ``transport="pipe"`` the frames ride the pipes too (pickled), as
    the PR-8 fallback path.  The strict send-all / recv-all alternation
    cannot deadlock: a worker blocked sending a round reply has a
    parent that will reach its ``recv``, and the parent only sends the
    next command after draining every worker's previous reply.
    """

    def __init__(self, scenario, partition, n_workers, profile_for,
                 transport, capture: bool = False):
        ctx = get_context("fork")
        self.channels = _ChannelMap(partition)
        self.transport = transport
        self.bus = None
        if transport == "shm":
            try:
                self.bus = ShmChannelBus(len(self.channels.pairs))
            except OSError:            # no POSIX shm on this box
                self.transport = transport = "pipe"
        self.owner = {sid: sid % n_workers
                      for sid in range(partition.n_shards)}
        self.conns = []
        self.procs = []
        self.shm_spills = 0
        self.round_no = 0
        self._spills: Dict[int, bytes] = {}          # chan -> frame
        self._inbound: Dict[int, List[_Message]] = {
            sid: [] for sid in self.owner}
        for w in range(n_workers):
            mine = [sid for sid, owner in self.owner.items() if owner == w]
            parent_conn, child_conn = ctx.Pipe()
            profile_paths = {sid: profile_for(sid) for sid in mine}
            proc = ctx.Process(
                target=_subprocess_main,
                args=(child_conn, scenario, partition, mine,
                      profile_paths, transport, self.bus, capture,
                      TRACE.capacity),
                daemon=True)
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
        for w in range(n_workers):
            self._expect(w, "ready")

    def _died(self, w: int) -> ShardWorkerDied:
        # Its end of the pipe is closed, so it is exiting: reap it for
        # its exit code.
        proc = self.procs[w]
        proc.join(timeout=5)
        return ShardWorkerDied(w, self.round_no, proc.exitcode)

    def _send(self, w: int, message) -> None:
        try:
            self.conns[w].send(message)
        except OSError as exc:      # BrokenPipeError, ConnectionResetError
            raise self._died(w) from exc

    def _expect(self, w: int, kind):
        try:
            tag, payload = self.conns[w].recv()
        except (EOFError, OSError) as exc:
            raise self._died(w) from exc
        if tag == "error":
            raise RuntimeError(f"shard worker failed: {payload}")
        if tag != kind:  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected {kind!r}, got {tag!r}")
        return payload

    def run_round(self, horizons):
        shm = self.transport == "shm"
        dst_of = self.channels.dst_of
        self.round_no += 1
        for w in range(len(self.conns)):
            payload = {}
            for sid, owner in self.owner.items():
                if owner != w:
                    continue
                if shm:
                    extra = {chan: frame
                             for chan, frame in self._spills.items()
                             if dst_of[chan] == sid}
                else:
                    extra = self._inbound[sid]
                payload[sid] = (horizons[sid], extra)
            self._send(w, ("round", payload))
        merged = {}
        for w in range(len(self.conns)):
            merged.update(self._expect(w, "round"))
        reports = {}
        new_spills: Dict[int, bytes] = {}
        new_inbound: Dict[int, List[_Message]] = {
            sid: [] for sid in self.owner}
        for sid in sorted(merged):
            peek, meta, extra = merged[sid]
            reports[sid] = (peek, meta)
            if shm:
                for chan, frame in extra.items():
                    new_spills[chan] = frame
                    self.shm_spills += 1
            else:
                for dst, messages in extra.items():
                    new_inbound[dst].extend(messages)
        self._spills = new_spills
        self._inbound = new_inbound
        return reports

    def finish(self):
        for w in range(len(self.conns)):
            self._send(w, ("finish", None))
        merged = {}
        for w in range(len(self.conns)):
            merged.update(self._expect(w, "finish"))
        return merged

    def close(self):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        if self.bus is not None:
            self.bus.close()
            self.bus.unlink()
            self.bus = None


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
    workers: int
    rounds: int
    until: float
    shard_clocks: List[float]
    events_per_shard: List[int]
    scheduler_stats: List[Dict[str, float]]
    work_s: List[float]
    barrier_wait_s: List[float]
    wall_s: float
    transport: str = "inproc"
    messages_relayed: int = 0
    frames_sent: int = 0
    transport_bytes: int = 0
    horizon_rounds_skipped: int = 0
    shm_spills: int = 0
    # Observability side-band: the per-shard scheduler/sync metrics
    # namespace (always present) and, when the run executed with the
    # flight recorder armed, the merged-trace input (worker captures +
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
        """Everything that must be byte-identical across worker counts
        *and* transports: results, fingerprints, per-shard event totals
        and scheduler stats, the barrier count, the final clocks, and
        the logical transport telemetry — all wall-time accounting
        excluded."""
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
    clock: float
    events: int
    scheduler_stats: Dict[str, float]
    wall_s: float


def results_identical(sharded: ShardRunResult,
                      unsharded: UnshardedRunResult) -> bool:
    """Result-level equality: same per-flow records, same (merged) link
    counters, same fingerprint.  Event *counts* are not compared here —
    the boundary stubs restructure events across simulators by design;
    count equality is asserted between worker counts instead."""
    return (sharded.flows == unsharded.flows
            and sharded.link_stats == unsharded.link_stats
            and sharded.fingerprint == unsharded.fingerprint)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _coordinate(pool, partition: Partition, until: float,
                log: Optional[List[Dict[str, Any]]] = None
                ) -> Tuple[int, int, int]:
    """Run rounds until every clock reaches ``until`` and a full round
    moves no messages.  Returns (rounds, messages_relayed,
    horizon_rounds_skipped).  When ``log`` is given (traced runs), one
    telemetry dict per round is appended — the coordinator-side view
    (pre-round clocks, granted horizons, relaxed earliest-action bases,
    frame/byte traffic, cumulative skips and spills) that the merge
    exporter turns into barrier spans and counter tracks.

    Horizons are *adaptive*: shard ``s`` cannot act before
    ``E_s = min(peek_s, earliest pending boundary delivery to s)``,
    and a chain of cross-shard wakeups cannot reach it earlier than the
    Bellman-Ford fixed point of ``E_s = min(E_s, min_q (E_q + L_qs))``
    (all lookaheads positive, so <= n passes converge).  Any future
    boundary delivery into ``dst`` is then ``>= E_src + L``, so one
    barrier may advance ``dst`` through every lookahead window below
    that bound — ``k`` quiet windows cost one barrier, not ``k``.
    PR 8's quiescent-round promotion is the special case with nothing
    in flight; carrying the pending-delivery bounds in the control
    words makes it sound on *every* round.
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
            # one lookahead; pure arithmetic, so identical across
            # pools and transports).
            least = _INF
            for horizon, clock in zip(horizons, clocks):
                advance = horizon - clock
                if 0.0 < advance < least:
                    least = advance
            if least < _INF and least > min_la:
                extra = int(least / min_la) - 1
                if extra > 0:
                    skipped += extra
        reports = pool.run_round(horizons)
        rounds += 1
        prev_clocks = clocks
        clocks = horizons
        inbound_min = [_INF] * n
        moved = 0
        # Order-free merge: peek assignment is per-shard, the pending
        # minima commute.
        for sid, (peek, meta) in reports.items():
            peeks[sid] = peek
            for dst, (count, earliest) in meta.items():
                moved += count
                if earliest < inbound_min[dst]:
                    inbound_min[dst] = earliest
        relayed += moved
        if log is not None:
            frames = 0
            frame_bytes = 0
            for _sid, (_peek, meta) in reports.items():
                frames += len(meta)
                for count, _earliest in meta.values():
                    frame_bytes += frame_nbytes(count)
            log.append({
                "round": rounds,
                "clocks": list(prev_clocks),
                "horizons": list(horizons),
                "bases": [base if base < _INF else None
                          for base in bases],
                "moved": moved,
                "frames": frames,
                "bytes": frame_bytes,
                "skipped": skipped,
                "spills": getattr(pool, "shm_spills", 0),
            })
        if moved == 0 and all(clock >= until for clock in clocks):
            return rounds, relayed, skipped


def run_sharded(scenario: ShardScenario,
                partition: Optional[Partition] = None,
                n_shards: Optional[int] = None,
                workers: Optional[int] = None,
                transport: Optional[str] = None,
                profile_dir: Optional[str] = None) -> ShardRunResult:
    """Execute ``scenario`` sharded; ``workers=1`` stays in-process.

    ``transport`` picks the ``workers>1`` interconnect: ``"shm"``
    (zero-copy shared-memory frames, the default, falling back to pipes
    on a host without POSIX shm) or ``"pipe"`` (pickled frames over the
    control pipes).  Results are bit-identical either way.
    """
    transport = transport or "shm"
    if transport not in TRANSPORTS:
        raise ValueError(f"transport={transport!r}; choose from "
                         f"{TRANSPORTS}")
    if partition is None:
        if n_shards is None:
            raise ValueError("pass a partition or n_shards")
        partition = partition_structure(scenario.structure, n_shards,
                                        cal=scenario.cal)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, partition.n_shards))

    def profile_for(sid: int) -> Optional[str]:
        if profile_dir is None:
            return None
        os.makedirs(profile_dir, exist_ok=True)
        return os.path.join(profile_dir, f"shard{sid}.prof")

    # Distributed capture piggybacks on the armed process-wide recorder:
    # a traced run (TRACE armed by the caller) makes every worker arm
    # its own ring and ship per-shard captures home at finish.
    capture = TRACE.enabled

    start = perf_counter()
    if workers == 1:
        pool = _InProcessPool(scenario, partition, profile_for, capture)
    else:
        pool = _SubprocessPool(scenario, partition, workers, profile_for,
                               transport, capture)
    try:
        rounds_log: Optional[List[Dict[str, Any]]] = \
            [] if capture else None
        rounds, relayed, skipped = _coordinate(pool, partition,
                                               scenario.until,
                                               log=rounds_log)
        payloads = pool.finish()
    finally:
        pool.close()
    wall = perf_counter() - start

    flows: Dict[int, Tuple[int, int, float, float]] = {}
    links: Dict[str, Dict[str, float]] = {}
    for sid in sorted(payloads):
        payload = payloads[sid]
        flows.update(payload["flows"])
        for name, counters in payload["links"].items():
            # Cut links report one half from each side; key-wise sums
            # reproduce the unsharded link's counters.
            if name in links:
                merged = links[name]
                for key, value in counters.items():
                    merged[key] = merged.get(key, 0) + value
            else:
                links[name] = dict(counters)

    ordered = [payloads[sid] for sid in range(partition.n_shards)]

    transport_totals: Dict[str, Any] = {
        "transport": pool.transport,
        "workers": workers,
        "rounds": rounds,
        "messages_relayed": relayed,
        "frames_sent": sum(p["frames_sent"] for p in ordered),
        "transport_bytes": sum(p["frame_bytes"] for p in ordered),
        "shm_spills": pool.shm_spills,
        "horizon_rounds_skipped": skipped,
    }
    # The sharded-run metrics namespace (always built, traced or not):
    # per-shard scheduler stats and barrier-wait accounting become
    # first-class registry entries so the metrics JSONL / snapshot-diff
    # cover sharded runs like any single-simulator deployment.
    registry = MetricsRegistry("shard-run")
    for sid, payload in enumerate(ordered):
        registry.register(f"shard{sid}.scheduler",
                          dict(payload["scheduler_stats"]))
        registry.register(f"shard{sid}.sync", {
            "clock_s": payload["clock"],
            "events": payload["events"],
            "work_s": payload["work_s"],
            "barrier_wait_s": payload["barrier_wait_s"],
            "frames_sent": payload["frames_sent"],
            "frame_bytes": payload["frame_bytes"]})
    registry.register("transport", transport_totals)

    obs: Optional[ShardObs] = None
    if capture:
        captures: Dict[int, ShardCapture] = {}
        for sid, payload in enumerate(ordered):
            wire = payload.get("obs")
            if wire is not None:
                captures[sid] = ShardCapture.from_wire(wire)
        obs = ShardObs(
            captures=captures,
            rounds=rounds_log or [],
            shards={sid: {"events": payload["events"],
                          "clock_s": payload["clock"],
                          "work_s": payload["work_s"],
                          "barrier_wait_s": payload["barrier_wait_s"]}
                    for sid, payload in enumerate(ordered)},
            transport=dict(transport_totals))

    return ShardRunResult(
        flows=flows,
        link_stats=links,
        fingerprint=_fingerprint(flows, links),
        chaos_fingerprint=scenario.chaos_fingerprint(),
        n_shards=partition.n_shards,
        workers=workers,
        rounds=rounds,
        until=scenario.until,
        shard_clocks=[p["clock"] for p in ordered],
        events_per_shard=[p["events"] for p in ordered],
        scheduler_stats=[p["scheduler_stats"] for p in ordered],
        work_s=[p["work_s"] for p in ordered],
        barrier_wait_s=[p["barrier_wait_s"] for p in ordered],
        wall_s=wall,
        transport=pool.transport,
        messages_relayed=relayed,
        frames_sent=sum(p["frames_sent"] for p in ordered),
        transport_bytes=sum(p["frame_bytes"] for p in ordered),
        horizon_rounds_skipped=skipped,
        shm_spills=pool.shm_spills,
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
        clock=sim.now,
        events=sim._sequence,
        scheduler_stats=sim.scheduler_stats(),
        wall_s=wall)
