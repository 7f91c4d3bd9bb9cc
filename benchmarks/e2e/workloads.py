"""The five benchmark workloads, driven through the public RPC API only.

Every workload is a batch job of a stated size with four phases:

``setup(seed)``   build the topology, parse IDL/NetFilter, register the
                  service, create stubs -- "ready to submit" (``setup_s``).
``inputs(seed)``  generate the seeded inputs (outside every timed region;
                  the program under test sees the inputs only).
``run(ctx, inp)`` the timed run phase: first submit -> last reply in hand.
``report(...)``   outside the timed region: the independent oracle, the
                  simulated-time metrics, the public counters and the
                  fingerprint of the simulated outcome.

Calibrations are written out here with ``repro.netsim.scaled`` rather
than imported from ``repro.experiments``, so editing an experiment cannot
silently change the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.apps import PaxosCluster
from repro.apps.training import GRAD_PROTO, gradient_filter
from repro.apps.wordcount import MR_PROTO, mr_filters
from repro.control import build_rack
from repro.core import Channel, NetRPCService, register_service
from repro.netsim import (EventFailed, RandomLoss, SimulationError,
                          percentile, scaled)
from repro.netsim.topology import fat_tree_structure
from repro.shard import (ShardScenario, partition_structure,
                         results_identical, run_sharded, run_unsharded,
                         synth_workload)
from repro.workloads import SyntheticCorpus, word_count

__all__ = ["WORKLOADS", "Report", "latency_summary", "tail_percentile"]

RUN_LIMIT_S = 10.0       # simulated-time cap of one run phase


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def tail_percentile(n_samples: int) -> int:
    """Highest reportable percentile: at least ten samples lie beyond it.

    Falls back to the median, which is always reported."""
    for pct in (99, 90):
        if n_samples * (100 - pct) >= 10 * 100:
            return pct
    return 50


def _latency(n_samples: int, at: Callable[[float], float]
             ) -> Dict[str, float]:
    """Median and the highest supported percentile, in microseconds;
    ``at(pct)`` gives the percentile in seconds."""
    tail = tail_percentile(n_samples)
    return {"samples": n_samples, "p50_us": at(50) * 1e6,
            "tail_pct": tail, "tail_us": at(tail) * 1e6}


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        raise ValueError("no latency samples")
    ordered = sorted(samples)
    return _latency(len(ordered), lambda pct: percentile(ordered, pct))


def _fingerprint(*parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Report:
    """What one iteration delivers besides its host wall time."""

    ops: int                      # the workload's op count
    failed: int                   # ops the oracle rejected
    sim_seconds: float            # simulated duration of the run phase
    latency: Dict[str, float]     # latency_summary()
    counters: Dict[str, float]    # one value per COUNTER_NAMES entry
    fingerprint: str              # SHA-256 of the simulated outcome
    # host-time side measurements (the shard runner's own accounting)
    shard_work_s: float = 0.0
    shard_barrier_wait_s: float = 0.0
    shard_unsharded_wall_s: float = 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rack_counters(dep, snap: Dict[str, float], ops: int, rpcs: int,
                   mapped: int, fallback: int) -> Dict[str, float]:
    """Deterministic per-layer counters of a rack deployment, from its
    ``metrics.snapshot()`` summed over links/hosts/switches."""
    sched = dep.sim.scheduler_stats()

    def s(prefix, suffix):
        return sum(v for k, v in snap.items()
                   if k.startswith(prefix) and k.endswith("." + suffix))

    events = sched["events_scheduled"]
    link_pkts = s("link.", "sent_pkts")
    link_bytes = s("link.", "sent_bytes")
    kernel_ops = s("pipeline.", "kernel_ops")
    sent = s("client.", "flows.sent") + s("server.", "flows.sent")
    retx = s("client.", "flows.retransmits") + \
        s("server.", "flows.retransmits")
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    counters.update({
        "netsim.events": events,
        "netsim.events_per_op": _ratio(events, ops),
        "netsim.avg_cohort_size": sched["avg_cohort_size"],
        "netsim.spill_rate": sched["spill_rate"],
        "netsim.peak_spill_depth": sched["peak_spill_depth"],
        "netsim.timers_created": sched["timers_created"],
        "netsim.cancelled_timer_ratio": sched["cancelled_timer_ratio"],
        "netsim.link_pkts": link_pkts,
        "netsim.link_bytes": link_bytes,
        "netsim.wire_drops": s("link.", "wire_drops"),
        "netsim.ecn_marks": s("link.", "ecn_marks"),
        "switchsim.rx_pkts": s("switch.", "rx_pkts"),
        "switchsim.tx_pkts": s("switch.", "tx_pkts"),
        "switchsim.kernel_ops": kernel_ops,
        "switchsim.pairs_per_kernel_op":
            _ratio(s("pipeline.", "kernel_pairs"), kernel_ops),
        "switchsim.cntfwd_fires": s("pipeline.", "cntfwd_fires"),
        "switchsim.bounced_pkts": s("switch.", "bounced_pkts"),
        "switchsim.bypass_pkts": s("pipeline.", "bypass_pkts"),
        "switchsim.retransmissions_detected":
            s("switch.", "retransmissions_detected"),
        "switchsim.ctrl_ops":
            s("switch.", "ctrl_reads") + s("switch.", "ctrl_writes"),
        "inc.flows_sent": sent,
        "inc.retransmit_ratio": _ratio(retx, sent),
        "inc.cc_timeouts":
            s("client.", "flows.cc.timeouts") +
            s("server.", "flows.cc.timeouts"),
        "inc.cc_decreases":
            s("client.", "flows.cc.decreases") +
            s("server.", "flows.cc.decreases"),
        "inc.abandoned":
            s("client.", "flows.abandoned") + s("server.", "flows.abandoned"),
        "inc.cache_hit_ratio": _ratio(mapped, mapped + fallback),
        "inc.software_pairs": s("server.", "agent.software_pairs"),
        "inc.evictions": s("server.", "agent.evictions"),
        "inc.replays": s("server.", "agent.replays"),
        "protocol.pkts_per_op": _ratio(link_pkts, ops),
        "protocol.wire_bytes_per_op": _ratio(link_bytes, ops),
        "core.rpcs": rpcs,
    })
    return counters


class _Calls:
    """Closed-loop caller bookkeeping shared by the stub-driven workloads:
    call count, per-call simulated latency, CallInfo pair counts."""

    def __init__(self, sim):
        self.sim = sim
        self.latencies: List[float] = []
        self.mapped = 0
        self.fallback = 0
        self.count = 0

    def call(self, stub, method: str, request, round=None):
        """Generator: one call from inside a simulated process."""
        start = self.sim.now
        self.count += 1
        reply, info = yield stub.call_async(method, request, round=round)
        self.latencies.append(self.sim.now - start)
        self.mapped += info.mapped_pairs
        self.fallback += info.fallback_pairs
        return reply


# ---------------------------------------------------------------------------
# train_sync / train_lossy
# ---------------------------------------------------------------------------
class TrainSync:
    """2 workers x ``rounds`` lock-step all-reduce rounds of one tensor."""

    name = "train_sync"
    workers = 2
    rounds = 8
    precision = 6
    loss_rate = 0.0

    def __init__(self, scale: float = 1.0):
        self.length = max(32, int(16000 * scale) // 32 * 32)

    def setup(self, seed: int):
        loss = (lambda: RandomLoss(self.loss_rate)) if self.loss_rate \
            else None
        dep = build_rack(self.workers, 1, seed=seed, loss_factory=loss)
        service = NetRPCService.from_text(
            GRAD_PROTO, "GradientService",
            {"agtr.nf": gradient_filter(self.workers,
                                        precision=self.precision)})
        clients = dep.client_names
        reg = register_service(dep, service, server="s0", clients=clients,
                               value_slots=262144, counter_slots=16384)
        stubs = [Channel(reg, c).stub() for c in clients]
        return dep, reg, stubs

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return [[[rng.uniform(-1.0, 1.0) for _ in range(self.length)]
                 for _ in range(self.rounds)]
                for _ in range(self.workers)]

    def run(self, ctx, inp):
        dep, reg, stubs = ctx
        grads = inp
        sim = dep.sim
        request = reg.binding("Update").request
        calls = _Calls(sim)
        replies: Dict[tuple, List[float]] = {}

        def worker(w: int):
            for r in range(self.rounds):
                reply = yield from calls.call(
                    stubs[w], "Update", request(tensor=grads[w][r]), round=r)
                replies[(w, r)] = reply.tensor

        start = sim.now
        procs = [sim.process(worker(w), name=f"train-c{w}")
                 for w in range(self.workers)]
        try:
            sim.run_until(sim.all_of(procs), limit=start + RUN_LIMIT_S)
        except (SimulationError, EventFailed):
            pass                # missing replies fail the oracle
        return calls, replies, sim.now - start

    def report(self, ctx, inp, out) -> Report:
        dep = ctx[0]
        grads = inp
        calls, replies, sim_seconds = out
        ops = self.rounds * self.length
        bound = self.workers * 0.5 * 10.0 ** -self.precision + 1e-12
        failed = 0
        for r in range(self.rounds):
            exact = [sum(col) for col in zip(*(grads[w][r]
                                               for w in range(self.workers)))]
            got = [replies.get((w, r)) for w in range(self.workers)]
            if any(g is None or len(g) != self.length for g in got):
                failed += self.length
                continue
            for i, want in enumerate(exact):
                if any(abs(g[i] - want) > bound for g in got):
                    failed += 1
        snap = dep.metrics.snapshot()
        counters = _rack_counters(dep, snap, ops, calls.count, calls.mapped,
                                  calls.fallback)
        failed += int(counters["inc.abandoned"] > 0) * ops
        return Report(
            ops=ops, failed=min(failed, ops), sim_seconds=sim_seconds,
            latency=latency_summary(calls.latencies), counters=counters,
            fingerprint=_fingerprint(
                snap, [replies.get((0, r)) for r in range(self.rounds)]))


class TrainLossy(TrainSync):
    """``train_sync`` byte-for-byte plus 1 % random loss on every link."""

    name = "train_lossy"
    loss_rate = 0.01


# ---------------------------------------------------------------------------
# wordcount_zipf
# ---------------------------------------------------------------------------
class WordCountZipf:
    """Keyed AsyncAgtr with more distinct words than switch slots.

    Runs on the default calibration, whose 5 ms LRU window outlasts the
    ~0.7 ms job, so no mapping is ever evicted: with the issue's
    ``scaled(cache_update_window_s=25e-6, mapping_quarantine_s=30e-6)``
    the switch evicts ~1,700 mappings and ``Query`` then returns 94,572
    of 96,000 words (every seed tried; ``WordCountJob`` shows the same) --
    a benchmark workload may not fail its oracle, so eviction stays out
    until that is fixed (README, "Findings").
    """

    name = "wordcount_zipf"
    mappers = 2
    batch_words = 512
    vocabulary = 8000
    words_per_doc = 80

    def __init__(self, scale: float = 1.0):
        self.docs = max(self.mappers, int(1200 * scale))

    def setup(self, seed: int):
        dep = build_rack(self.mappers, 1, seed=seed)
        service = NetRPCService.from_text(MR_PROTO, "MapReduce", mr_filters())
        clients = dep.client_names
        reg = register_service(dep, service, server="s0", clients=clients,
                               value_slots=4096, cache_policy="netrpc")
        stubs = [Channel(reg, c).stub() for c in clients]
        return dep, reg, stubs

    def inputs(self, seed: int):
        corpus = SyntheticCorpus(vocabulary_size=self.vocabulary, zipf_s=1.1,
                                 words_per_doc=self.words_per_doc, seed=seed)
        docs = list(corpus.documents(self.docs))
        shards = [docs[m::self.mappers] for m in range(self.mappers)]
        # Each mapper's <=512-word batches, pre-counted: local counting is
        # the application's work, not the RPC system's.
        batches = []
        for shard in shards:
            mine, batch, size = [], {}, 0
            for doc in shard:
                for word in doc.split():
                    batch[word] = batch.get(word, 0) + 1
                    size += 1
                    if size >= self.batch_words:
                        mine.append(batch)
                        batch, size = {}, 0
            if batch:
                mine.append(batch)
            batches.append(mine)
        expected = word_count(docs)
        vocab = sorted(expected)
        queries = [dict.fromkeys(vocab[begin:begin + 512], 0)
                   for begin in range(0, len(vocab), 512)]
        return batches, queries, expected

    def run(self, ctx, inp):
        dep, reg, stubs = ctx
        batches, queries, _expected = inp
        sim = dep.sim
        reduce_req = reg.binding("ReduceByKey").request
        query_req = reg.binding("Query").request
        calls = _Calls(sim)
        counts: Dict[str, int] = {}

        def mapper(m: int):
            for batch in batches[m]:
                yield from calls.call(stubs[m], "ReduceByKey",
                                      reduce_req(kvs=batch))

        def reader():
            for query in queries:
                reply = yield from calls.call(stubs[0], "Query",
                                              query_req(kvs=query))
                counts.update(reply.kvs)

        start = sim.now
        try:
            sim.run_until(sim.all_of([sim.process(mapper(m), name=f"map-c{m}")
                                      for m in range(self.mappers)]),
                          limit=start + RUN_LIMIT_S)
            sim.run_until(sim.process(reader(), name="reader"),
                          limit=start + 2 * RUN_LIMIT_S)
        except (SimulationError, EventFailed):
            pass                # missing counts fail the oracle
        return calls, counts, sim.now - start

    def report(self, ctx, inp, out) -> Report:
        dep = ctx[0]
        expected = inp[2]
        calls, counts, sim_seconds = out
        words = sum(expected.values())
        ops = words + len(expected)
        # A wrong key fails its query and every reduce of that word.
        failed = sum(1 + want for word, want in expected.items()
                     if counts.get(word) != want)
        snap = dep.metrics.snapshot()
        counters = _rack_counters(dep, snap, ops, calls.count, calls.mapped,
                                  calls.fallback)
        failed += int(counters["inc.abandoned"] > 0) * ops
        return Report(
            ops=ops, failed=min(failed, ops), sim_seconds=sim_seconds,
            latency=latency_summary(calls.latencies), counters=counters,
            fingerprint=_fingerprint(snap, sorted(counts.items())))


# ---------------------------------------------------------------------------
# paxos_small
# ---------------------------------------------------------------------------
class PaxosSmall:
    """12,000 one-pair RPCs: the smallest message, per-call cost dominates."""

    name = "paxos_small"
    proposers = ["c0", "c1"]
    acceptors = ["c2", "c3"]
    learners = ["c4", "c5", "c6"]
    window = 2
    cal = scaled(host_pkt_cpu_s=1.5e-6, host_agent_cores=2)

    def __init__(self, scale: float = 1.0):
        self.instances = max(100, int(4000 * scale))

    def setup(self, seed: int):
        dep = build_rack(7, 1, cal=self.cal, seed=seed)
        cluster = PaxosCluster(dep, proposers=self.proposers,
                               acceptors=self.acceptors,
                               learners=self.learners)
        return dep, cluster

    def inputs(self, seed: int):
        return None     # PaxosCluster fixes the proposed values itself

    def run(self, ctx, inp):
        _dep, cluster = ctx
        return cluster.run(self.instances, window=self.window,
                           limit=RUN_LIMIT_S)

    def report(self, ctx, inp, out) -> Report:
        dep, _cluster = ctx
        ops = self.instances
        failed = sum(
            1 for i in range(ops)
            if out.decided.get(i) !=
            f"cmd-{self.proposers[i % len(self.proposers)]}-{i}")
        rpcs = ops * (1 + len(self.acceptors))
        snap = dep.metrics.snapshot()
        counters = _rack_counters(dep, snap, ops, rpcs, 0, 0)
        failed += int(counters["inc.abandoned"] > 0) * ops
        return Report(
            ops=ops, failed=min(failed, ops), sim_seconds=out.elapsed_s,
            latency=_latency(out.latency.count, out.latency.p),
            counters=counters,
            fingerprint=_fingerprint(snap, sorted(out.decided.items())))


# ---------------------------------------------------------------------------
# fabric_rackscale
# ---------------------------------------------------------------------------
class FabricRackscale:
    """k=8 fat tree under the sharded runner: no core/inc/protocol/switchsim
    at all -- the control for every host-path optimisation."""

    name = "fabric_rackscale"
    k = 8
    n_shards = 8
    until = 8e-3
    cal = scaled(switch_link_delay_s=10e-6)

    def __init__(self, scale: float = 1.0):
        self.n_flows = max(100, int(8000 * scale))

    def setup(self, seed: int):
        return partition_structure(fat_tree_structure(self.k),
                                   self.n_shards, cal=self.cal)

    def inputs(self, seed: int):
        structure = fat_tree_structure(self.k)
        flows = synth_workload(structure, self.n_flows, seed, t0=0.0,
                               t1=self.until * 0.6)
        return ShardScenario(structure=structure, flows=flows,
                             until=self.until, seed=seed, cal=self.cal)

    def run(self, ctx, inp):
        return run_sharded(inp, partition=ctx, workers=1)

    def report(self, ctx, inp, out) -> Report:
        reference = run_unsharded(inp)       # the oracle, untimed
        emitted = sum(f.n_pkts for f in inp.flows)
        delivered = sum(rec[0] for rec in out.flows.values())
        failed = emitted - delivered
        if not results_identical(out, reference):
            failed = emitted
        start_of = {f.flow_id: f.start_s for f in inp.flows}
        fct = [rec[3] - start_of[fid] for fid, rec in out.flows.items()]
        makespan = max(rec[3] for rec in out.flows.values())

        events = out.total_events
        cohorts = sum(s["cohorts_created"] for s in out.scheduler_stats)
        timers = sum(s["timers_created"] for s in out.scheduler_stats)
        cancelled = sum(s["timers_cancelled"] for s in out.scheduler_stats)

        def links(key):
            return sum(c.get(key, 0) for c in out.link_stats.values())

        counters = dict.fromkeys(COUNTER_NAMES, 0)
        counters.update({
            "netsim.events": events,
            "netsim.events_per_op": _ratio(events, emitted),
            "netsim.avg_cohort_size": _ratio(events, cohorts),
            "netsim.spill_rate": _ratio(cohorts, events),
            "netsim.peak_spill_depth":
                max(s["peak_spill_depth"] for s in out.scheduler_stats),
            "netsim.timers_created": timers,
            "netsim.cancelled_timer_ratio": _ratio(cancelled, timers),
            "netsim.link_pkts": links("sent_pkts"),
            "netsim.link_bytes": links("sent_bytes"),
            "netsim.wire_drops": links("wire_drops"),
            "netsim.ecn_marks": links("ecn_marks"),
            "protocol.pkts_per_op": _ratio(links("sent_pkts"), emitted),
            "protocol.wire_bytes_per_op":
                _ratio(links("sent_bytes"), emitted),
            "shard.rounds": out.rounds,
            "shard.frames_sent": out.frames_sent,
            "shard.transport_bytes": out.transport_bytes,
            "shard.messages_relayed": out.messages_relayed,
            "shard.horizon_rounds_skipped": out.horizon_rounds_skipped,
        })
        return Report(
            ops=emitted, failed=failed, sim_seconds=makespan,
            latency=latency_summary(fct), counters=counters,
            fingerprint=_fingerprint(out.comparable_state()),
            shard_work_s=sum(out.work_s),
            shard_barrier_wait_s=sum(out.barrier_wait_s),
            shard_unsharded_wall_s=reference.wall_s)


#: every deterministic counter a workload reports (0 where a layer is unused)
COUNTER_NAMES = (
    "netsim.events", "netsim.events_per_op", "netsim.avg_cohort_size",
    "netsim.spill_rate", "netsim.peak_spill_depth", "netsim.timers_created",
    "netsim.cancelled_timer_ratio", "netsim.link_pkts", "netsim.link_bytes",
    "netsim.wire_drops", "netsim.ecn_marks",
    "switchsim.rx_pkts", "switchsim.tx_pkts", "switchsim.kernel_ops",
    "switchsim.pairs_per_kernel_op", "switchsim.cntfwd_fires",
    "switchsim.bounced_pkts", "switchsim.bypass_pkts",
    "switchsim.retransmissions_detected", "switchsim.ctrl_ops",
    "inc.flows_sent", "inc.retransmit_ratio", "inc.cc_timeouts",
    "inc.cc_decreases", "inc.abandoned", "inc.cache_hit_ratio",
    "inc.software_pairs", "inc.evictions", "inc.replays",
    "protocol.pkts_per_op", "protocol.wire_bytes_per_op", "core.rpcs",
    "shard.rounds", "shard.frames_sent", "shard.transport_bytes",
    "shard.messages_relayed", "shard.horizon_rounds_skipped",
)

WORKLOADS: Dict[str, Callable[..., Any]] = {
    cls.name: cls for cls in (TrainSync, TrainLossy, WordCountZipf,
                              PaxosSmall, FabricRackscale)}
