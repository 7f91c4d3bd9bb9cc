"""Shared measurement harnesses for the paper's evaluation (§6).

Every table/figure benchmark builds on these: synchronous/asynchronous
aggregation goodput, voting and monitoring latency, and small helpers
for reporting.  Absolute numbers come from the calibrated simulator;
benchmarks assert *shape* (orderings, ratios, crossovers), never
equality with the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.control import Deployment, build_rack
from repro.inc import Task
from repro.netsim import (
    Calibration,
    ChaosSchedule,
    InvariantChecker,
    RandomLoss,
    SimulationError,
    SwitchReboot,
    scaled,
)
from repro.protocol import (
    INT32_MAX,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
)

__all__ = [
    "CAL",
    "sync_program", "async_programs", "vote_program",
    "SyncResult", "run_sync_aggregation", "sync_chunk_latency",
    "AsyncResult", "run_async_aggregation",
    "voting_delay", "format_table",
    "ChaosRunResult", "run_chaos_sync_round", "chaos_task_values",
    "reboot_schedule_factory", "run_chaos_reboot_round",
]

CAL = scaled()

BIG = INT32_MAX - 10   # a value that overflows when two clients add it


# ---------------------------------------------------------------------------
# program factories (the NetFilters behind each app type)
# ---------------------------------------------------------------------------
def sync_program(n_clients: int, clear: ClearPolicy = ClearPolicy.COPY,
                 app_name: str = "SYNC") -> RIPProgram:
    return RIPProgram(
        app_name=app_name, get_field="r.t", add_to_field="q.t", clear=clear,
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=n_clients))


def async_programs(app_name: str = "ASYNC") -> List[RIPProgram]:
    return [
        RIPProgram(app_name=app_name, add_to_field="r.kvs",
                   cntfwd=CntFwdSpec(target=ForwardTarget.SRC)),
        RIPProgram(app_name=app_name, get_field="q.kvs",
                   cntfwd=CntFwdSpec(target=ForwardTarget.SRC)),
    ]


def vote_program(threshold: int, app_name: str = "VOTE") -> RIPProgram:
    return RIPProgram(
        app_name=app_name, get_field="v.kvs", add_to_field="v.kvs",
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=threshold))


# ---------------------------------------------------------------------------
# synchronous aggregation
# ---------------------------------------------------------------------------
@dataclass
class SyncResult:
    goodput_gbps: float              # per-sender payload goodput
    elapsed_s: float
    overflow_chunks: int = 0
    retransmits: int = 0


def run_sync_aggregation(n_clients: int = 2, n_values: int = 128_000,
                         clear: ClearPolicy = ClearPolicy.COPY,
                         loss: float = 0.0, seed: int = 0,
                         cal: Calibration = CAL, cc_enabled: bool = True,
                         overflow_ratio: float = 0.0,
                         value_slots: int = 262_144,
                         deployment: Optional[Deployment] = None,
                         limit: float = 120.0) -> SyncResult:
    """One SyncAgtr round of ``n_values`` per client; per-sender goodput."""
    if deployment is None:
        loss_factory = (lambda: RandomLoss(loss)) if loss else None
        deployment = build_rack(n_clients, 1, cal=cal, seed=seed,
                                loss_factory=loss_factory)
    (config,) = deployment.controller.register(
        [sync_program(n_clients, clear)], server=deployment.server_name,
        clients=deployment.client_names[:n_clients],
        value_slots=value_slots, counter_slots=16_384, linear=True,
        cc_enabled=cc_enabled)
    start = deployment.sim.now
    # Overflow chunks are drawn once per chunk (not per client): an
    # accumulator only overflows when every contributor carries the
    # near-max value, like a badly scaled gradient coordinate.
    overflow_chunks = set()
    if overflow_ratio > 0:
        import random as _random
        chunk_rng = _random.Random(seed + 77)
        for chunk_start in range(0, n_values, 32):
            if chunk_rng.random() < overflow_ratio:
                overflow_chunks.add(chunk_start)
    events = []
    for index in range(n_clients):
        if overflow_chunks:
            items = []
            for chunk_start in range(0, n_values, 32):
                value = BIG if chunk_start in overflow_chunks else 1
                items.extend((chunk_start + j, value) for j in range(32))
            items = items[:n_values]
        else:
            items = [(j, 1) for j in range(n_values)]
        task = Task(app=config, round=0, items=items, expect_result=True)
        events.append(deployment.client_agent(index).submit(task))
    results = [deployment.sim.run_until(e, limit=start + limit)
               for e in events]
    elapsed = deployment.sim.now - start
    payload_bits = n_values * 4 * 8
    agent0 = deployment.client_agent(0)
    retx = sum(f.stats["retransmits"]
               for f in agent0.app_state(config.program.app_name).flows)
    return SyncResult(
        goodput_gbps=payload_bits / elapsed / 1e9,
        elapsed_s=elapsed,
        overflow_chunks=sum(r.overflow_chunks for r in results),
        retransmits=retx)


def sync_chunk_latency(n_clients: int = 2,
                       clear: ClearPolicy = ClearPolicy.COPY,
                       rounds: int = 20, cal: Calibration = CAL,
                       overflow_ratio: float = 0.0, seed: int = 0) -> float:
    """Mean completion latency of a single 32-value chunk (Table 6)."""
    deployment = build_rack(n_clients, 1, cal=cal, seed=seed)
    (config,) = deployment.controller.register(
        [sync_program(n_clients, clear)], server="s0",
        clients=deployment.client_names[:n_clients],
        value_slots=4096, counter_slots=512, linear=True)
    rng = deployment.sim.rng
    samples = []
    for round_no in range(rounds):
        value = BIG if rng.random() < overflow_ratio else 1
        start = deployment.sim.now
        events = [deployment.client_agent(i).submit(
            Task(app=config, round=round_no,
                 items=[(j, value) for j in range(32)],
                 expect_result=True))
            for i in range(n_clients)]
        for event in events:
            deployment.sim.run_until(event, limit=start + 10.0)
        samples.append(deployment.sim.now - start)
        deployment.sim.run(until=deployment.sim.now + 1e-4)
    return sum(samples) / len(samples)


# ---------------------------------------------------------------------------
# asynchronous (keyed) aggregation
# ---------------------------------------------------------------------------
@dataclass
class AsyncResult:
    goodput_gbps: float
    cache_hit_ratio: float
    elapsed_s: float


def run_async_aggregation(n_clients: int = 2, distinct_keys: int = 4096,
                          repeats: int = 4, cache_policy: str = "netrpc",
                          value_slots: int = 65_536, seed: int = 0,
                          cal: Calibration = CAL, zipf_s: float = 0.0,
                          software_only: bool = False,
                          deployment: Optional[Deployment] = None,
                          app_name: str = "ASYNC", phases: int = 1,
                          limit: float = 240.0) -> AsyncResult:
    """Loop ``distinct_keys`` keys ``repeats`` times through Map.addTo.

    The §6.6 workload: a cache smaller than the key set suffers misses.
    ``phases > 1`` rotates which keys are hot partway through the stream
    (the dynamic popularity that separates adaptive cache policies from
    FCFS in Figure 12).  Returns per-sender goodput and the
    client-observed cache hit ratio.
    """
    if deployment is None:
        deployment = build_rack(n_clients, 1, cal=cal, seed=seed)
    reduce_cfg, _query_cfg = deployment.controller.register(
        async_programs(app_name), server=deployment.server_name,
        clients=deployment.client_names[:n_clients],
        value_slots=value_slots, cache_policy=cache_policy,
        software_only=software_only)
    total = distinct_keys * repeats
    per_phase = max(1, total // max(1, phases))
    if zipf_s > 0:
        from repro.workloads import ZipfGenerator
        sampler = ZipfGenerator(distinct_keys, s=zipf_s, seed=seed)
        key_stream = []
        for position in range(total):
            phase = min(position // per_phase, phases - 1)
            rank = sampler.sample_index()
            actual = (rank + phase * (distinct_keys // max(1, phases))) \
                % distinct_keys
            key_stream.append(f"key-{actual}")
    else:
        key_stream = [f"key-{i % distinct_keys}" for i in range(total)]

    sim = deployment.sim
    start = sim.now
    mapped_total = 0
    fallback_total = 0

    def collect(event):
        nonlocal mapped_total, fallback_total
        if event.ok and event.value is not None:
            mapped_total += event.value.mapped_pairs
            fallback_total += event.value.fallback_pairs

    def client_proc(agent, keys):
        # Pipeline several outstanding calls (the agent's worker threads
        # drain them concurrently, §4's automatic data parallelism).
        batch, inflight = 1024, []
        for begin in range(0, len(keys), batch):
            task = Task(app=reduce_cfg,
                        items=[(k, 1) for k in keys[begin:begin + batch]],
                        expect_result=False)
            event = agent.submit(task)
            event.add_callback(collect)
            inflight.append(event)
            if len(inflight) >= 8:
                yield inflight.pop(0)
        for event in inflight:
            yield event

    processes = [sim.process(
        client_proc(deployment.client_agent(i), list(key_stream)),
        name=f"async-{i}") for i in range(n_clients)]
    sim.run_until(sim.all_of(processes), limit=start + limit)
    elapsed = sim.now - start
    payload_bits = len(key_stream) * 8 * 8   # key + value per pair
    total = mapped_total + fallback_total
    return AsyncResult(
        goodput_gbps=payload_bits / elapsed / 1e9,
        cache_hit_ratio=mapped_total / total if total else 0.0,
        elapsed_s=elapsed)


# ---------------------------------------------------------------------------
# voting latency
# ---------------------------------------------------------------------------
def voting_delay(n_voters: int = 3, rounds: int = 30,
                 cal: Calibration = CAL,
                 software_only: bool = False, seed: int = 0) -> float:
    """Mean time for a voting round to reach all clients (Table 5).

    Ballots are index-addressed (one counter register per round, like
    the Paxos application), so steady-state votes take the pure switch
    path.
    """
    deployment = build_rack(n_voters, 1, cal=cal, seed=seed)
    (config,) = deployment.controller.register(
        [vote_program(n_voters)], server="s0",
        clients=deployment.client_names[:n_voters],
        value_slots=4096, counter_slots=4096, linear=True,
        software_only=software_only)
    sim = deployment.sim
    samples = []
    for round_no in range(rounds):
        start = sim.now
        events = [deployment.client_agent(i).submit(
            Task(app=config, round=round_no, items=[(round_no, 1)],
                 expect_result=True, indexed=True))
            for i in range(n_voters)]
        for event in events:
            sim.run_until(event, limit=start + 10.0)
        samples.append(sim.now - start)
        sim.run(until=sim.now + 1e-4)
    steady = samples[1:] or samples
    return sum(steady) / len(steady)


# ---------------------------------------------------------------------------
# chaos-enabled harness (fault injection + invariant checking)
# ---------------------------------------------------------------------------
@dataclass
class ChaosRunResult:
    """Outcome of one faulted SyncAgtr round, judged against its own
    no-fault baseline: ``ok`` means every client got the bit-identical
    aggregate; otherwise ``failure`` carries the *explicit* error (a
    simulation timeout / give-up) — ``violations`` non-empty is the one
    forbidden outcome, a silent wrong answer or broken invariant."""

    ok: bool
    failure: Optional[str]
    values: Optional[Dict[int, int]]       # client 0's view (if resolved)
    final_time_s: float
    fingerprint: Optional[str]
    violations: List[str]
    switch_stats: Dict[str, float]
    server_stats: Dict[str, float]
    # Failover audit trail (controller-recorded; both picklable so the
    # sweep engine's subprocess workers can ship them back unchanged).
    audit: Dict[str, float] = field(default_factory=dict)
    audit_trail: List[tuple] = field(default_factory=list)


def chaos_task_values(n_clients: int, n_values: int) -> List[List[tuple]]:
    """Deterministic, non-uniform per-client (index, value) items.

    Distinct values per client so a partial aggregate (one client's
    contribution missing or doubled) can never collide with the true
    sum — the property the silent-wrong-answer check rides on.
    """
    return [[(j, ((i + 1) * (j % 13 + 1)) % 97 + 1) for j in range(n_values)]
            for i in range(n_clients)]


def run_chaos_sync_round(n_clients: int = 2, n_values: int = 256,
                         seed: int = 0, chaos_seed: Optional[int] = None,
                         schedule: Optional[ChaosSchedule] = None,
                         schedule_factory: Optional[
                             Callable[[float, Deployment],
                                      ChaosSchedule]] = None,
                         n_link_faults: int = 3, n_switch_reboots: int = 1,
                         n_host_pauses: int = 1,
                         cal: Calibration = CAL, value_slots: int = 8192,
                         counter_slots: int = 1024,
                         limit: float = 2.0) -> ChaosRunResult:
    """One SyncAgtr round under a fault schedule, with invariants checked.

    Runs the identical workload twice: a no-fault baseline (which also
    yields the fault window ``[0.15 T, 0.85 T]`` for random schedules),
    then a chaos run with the schedule installed.  The schedule comes
    from ``schedule`` verbatim, from ``schedule_factory(baseline_elapsed,
    deployment)``, or from ``ChaosSchedule.random(chaos_seed, ...)``.
    """
    per_client = chaos_task_values(n_clients, n_values)
    expected = {j: sum(items[j][1] for items in per_client)
                for j in range(n_values)}

    def _run(deployment, arm):
        controller = deployment.controller
        (config,) = controller.register(
            [sync_program(n_clients)], server=deployment.server_name,
            clients=deployment.client_names[:n_clients],
            value_slots=value_slots, counter_slots=counter_slots,
            linear=True)
        checker = fingerprint = None
        if arm is not None:
            checker, fingerprint = arm(deployment)
        sim = deployment.sim
        start = sim.now
        events = [deployment.client_agent(i).submit(
            Task(app=config, round=0, items=per_client[i],
                 expect_result=True))
            for i in range(n_clients)]
        failure = None
        results = []
        for event in events:
            try:
                results.append(sim.run_until(event, limit=start + limit))
            except SimulationError as exc:
                failure = f"explicit failure: {exc}"
                break
        return checker, fingerprint, results, failure, sim.now - start

    # -- no-fault baseline ---------------------------------------------
    baseline = build_rack(n_clients, 1, cal=cal, seed=seed)
    _, _, base_results, base_failure, base_elapsed = _run(baseline, None)
    if base_failure is not None:   # pragma: no cover - harness sanity
        raise RuntimeError(f"no-fault baseline did not complete: "
                           f"{base_failure}")
    for result in base_results:
        if result.values != expected:   # pragma: no cover - harness sanity
            raise RuntimeError("no-fault baseline diverged from the "
                               "in-memory sum")

    # -- chaos run ------------------------------------------------------
    def arm(deployment):
        if schedule is not None:
            plan = schedule
        elif schedule_factory is not None:
            plan = schedule_factory(base_elapsed, deployment)
        else:
            plan = ChaosSchedule.random(
                0 if chaos_seed is None else chaos_seed, deployment,
                t0=0.15 * base_elapsed, t1=0.85 * base_elapsed,
                n_link_faults=n_link_faults,
                n_switch_reboots=n_switch_reboots,
                n_host_pauses=n_host_pauses)
        plan.install(deployment)
        checker = InvariantChecker(deployment)
        # Bounded observation cadence: frequent enough to catch drift
        # mid-round, coarse enough that a timed-out run stays cheap.
        checker.start(max(cal.retransmit_timeout_s, limit / 2000.0))
        return checker, plan.fingerprint()

    deployment = build_rack(n_clients, 1, cal=cal, seed=seed)
    checker, fingerprint, results, failure, _ = _run(deployment, arm)

    # Drain in-flight retransmissions/clears before judging quiescent
    # state (bounded: flows idle once every chunk and return is acked).
    sim = deployment.sim
    sim.run(until=sim.now + 100 * cal.retransmit_timeout_s)
    checker.observe()

    values = None
    ok = failure is None and len(results) == n_clients
    for index, result in enumerate(results):
        if index == 0:
            values = result.values
        if not checker.check_result(f"client {index}", expected,
                                    result.values):
            ok = False
    return ChaosRunResult(
        ok=ok, failure=failure, values=values, final_time_s=sim.now,
        fingerprint=fingerprint, violations=list(checker.violations),
        switch_stats=deployment.switches[0].stats.as_dict(),
        server_stats=dict(deployment.server_agent(0).stats),
        audit=deployment.controller.audit.as_dict(),
        audit_trail=list(deployment.controller.audit_log))


def reboot_schedule_factory(frac: float) -> Callable[[float, Deployment],
                                                     ChaosSchedule]:
    """Schedule factory: reboot the first switch at ``frac`` of the
    no-fault baseline's elapsed time (the acceptance scenario's knob)."""
    def factory(base_elapsed: float,
                deployment: Deployment) -> ChaosSchedule:
        return ChaosSchedule([SwitchReboot(
            switch=deployment.switches[0].name, at=frac * base_elapsed)])
    return factory


def run_chaos_reboot_round(seed: int = 0, frac: float = 0.45,
                           n_clients: int = 2,
                           n_values: int = 256) -> ChaosRunResult:
    """Mid-round switch-reboot acceptance run as a pure function of
    (seed, frac) — importable by sweep workers, unlike the closure the
    schedule factory otherwise would be."""
    return run_chaos_sync_round(
        n_clients=n_clients, n_values=n_values, seed=seed,
        schedule_factory=reboot_schedule_factory(frac))


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------
def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table used by every benchmark's printed output."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)
