"""Seed-determinism golden test for the optimized hot path.

Runs a 2-to-1 SyncAgtr round twice with the same seed and asserts the
two runs are indistinguishable, then pins the results to golden values
snapshotted from the pre-optimization simulator.  The hot-path work
(fused link events, inlined counters, memoized addressing) was required
to be *bit-identical* — same float timestamps, same event tie-breaking,
same counter values — and this test is the tripwire: an optimization
that reorders same-timestamp events or perturbs a float computation
shifts ``sim.now`` or the event count and fails here.
"""

import hashlib
import json
import struct

from repro.apps import PaxosCluster
from repro.control import build_rack
from repro.experiments.common import (async_programs, run_chaos_sync_round,
                                      run_sync_aggregation)
from repro.inc import Task
from repro.netsim import ChaosSchedule, scaled
from repro.workloads import ZipfGenerator

from ..callcount import count_calls
from ..core.test_dense_column import (all_reduce, random_tensors,
                                      stub_deployment)

# Golden values captured on the pre-optimization simulator (and
# verified unchanged after the overhaul): 2 clients x 4096 values,
# seed 7.  Every *observable* quantity — timestamps, goodput, per-node
# counters — is bit-identical across the rewrite.
GOLDEN_GOODPUT_GBPS = 17.283429680577207
GOLDEN_FINAL_TIME_S = 7.583680000000015e-06
# The internal event count is the one number that legitimately moved:
# the fused link path schedules one event per idle-transmitter packet
# instead of two (pre-optimization: 2714).  Pinned so an accidental
# return to the two-event model — or a new per-packet event — is caught.
GOLDEN_EVENT_COUNT = 2186
GOLDEN_SWITCH_STATS = {"cntfwd_absorbed": 128, "inc_pkts": 384,
                       "multicasts": 128, "rx_pkts": 384, "tx_pkts": 384}
GOLDEN_CLIENT0_STATS = {"processed_pkts": 128, "rx_pkts": 128,
                        "tx_pkts": 132}
GOLDEN_SERVER_STATS = {"processed_pkts": 128, "rx_pkts": 128,
                       "tx_pkts": 128}


def _run_once(seed=7, n_values=4096):
    deployment = build_rack(2, 1, seed=seed)
    result = run_sync_aggregation(n_clients=2, n_values=n_values,
                                  seed=seed, deployment=deployment)
    return {
        "goodput_gbps": result.goodput_gbps,
        "final_time_s": deployment.sim.now,
        "event_count": deployment.sim._sequence,
        "switch": dict(sorted(deployment.switches[0].stats
                              .as_dict().items())),
        "client0": dict(sorted(deployment.clients[0].stats
                               .as_dict().items())),
        "server": dict(sorted(deployment.servers[0].stats
                              .as_dict().items())),
    }


def test_same_seed_is_bit_identical():
    first = _run_once()
    second = _run_once()
    # Full-precision float comparison on purpose: determinism means
    # identical bits, not "close enough".
    assert first == second


def test_matches_pre_optimization_golden_snapshot():
    run = _run_once()
    assert run["goodput_gbps"] == GOLDEN_GOODPUT_GBPS
    assert run["final_time_s"] == GOLDEN_FINAL_TIME_S
    assert run["event_count"] == GOLDEN_EVENT_COUNT
    assert run["switch"] == GOLDEN_SWITCH_STATS
    assert run["client0"] == GOLDEN_CLIENT0_STATS
    assert run["server"] == GOLDEN_SERVER_STATS


def test_different_workload_diverges():
    # Guard against the golden test passing vacuously (e.g. the stats
    # plumbing returning constants regardless of the simulation).  The
    # lossless aggregation path draws nothing from the RNG, so the
    # workload size — not the seed — is what must move the needle.
    assert _run_once(n_values=2048) != _run_once(n_values=4096)


# --- chaos-schedule determinism ---------------------------------------
# A ChaosSchedule is a pure function of (seed, topology): it must hash
# to the same fingerprint on every machine and across PRs, so a failing
# chaos seed reported in one session reproduces in the next.  Pinned on
# the exp_micro topology (build_rack(2, 1)).
GOLDEN_CHAOS_FINGERPRINT = \
    "09a9eff07cb4d2c45c0bb1ffbca8d7755c7a4a42e9faa58c5589018b91869662"
# And a full chaos round — random faults layered over the lossy link
# path — must itself be bit-identical run-to-run, ending at the same
# simulated instant.
GOLDEN_CHAOS_FINAL_TIME_S = 0.00202551008


def test_chaos_schedule_fingerprint_pinned():
    dep = build_rack(2, 1, seed=7)
    schedule = ChaosSchedule.random(11, dep, t0=1e-6, t1=5e-6,
                                    n_link_faults=4, n_switch_reboots=1,
                                    n_host_pauses=1)
    assert schedule.fingerprint() == GOLDEN_CHAOS_FINGERPRINT


def test_chaos_run_is_bit_identical():
    first = run_chaos_sync_round(n_clients=2, n_values=256, seed=0,
                                 chaos_seed=3)
    second = run_chaos_sync_round(n_clients=2, n_values=256, seed=0,
                                  chaos_seed=3)
    assert (first.values, first.final_time_s, first.fingerprint,
            first.failure, first.switch_stats) == \
        (second.values, second.final_time_s, second.fingerprint,
         second.failure, second.switch_stats)
    assert first.ok
    assert first.final_time_s == GOLDEN_CHAOS_FINAL_TIME_S


# --- keyed AsyncAgtr admission pin --------------------------------------
# A small keyed run whose vocabulary (512) is four times the switch
# reservation (128), with a cache-update window short enough that the
# counting-LRU evicts and re-grants: the denial path, the victim choice
# and the quarantine are all live.  Values captured on the commit before
# the admission path stopped copying the mapping per miss; any later
# "speed-up" that changes which keys are granted, denied or evicted —
# even only the tie order among equally cold victims — moves them.
GOLDEN_KEYED = {
    "event_count": 10902,
    "final_time_s": 0.00039574400000000245,
    "link_pkts": 3834,
    "cache_hit_ratio": 0.5393229166666667,
    "software_pairs": 3538,
    "mm_stats": {"grants": 178, "denied": 3194, "evictions": 58},
}


def _run_keyed_once():
    distinct, tasks, batch = 512, 60, 64
    cal = scaled(cache_update_window_s=25e-6, mapping_quarantine_s=30e-6)
    dep = build_rack(2, 1, cal=cal, seed=7)
    reduce_cfg, _query_cfg = dep.controller.register(
        async_programs("GOLD"), server="s0", clients=dep.client_names,
        value_slots=128, cache_policy="netrpc")
    sim = dep.sim
    pairs = {"mapped": 0, "fallback": 0}

    def client(index):
        # One outstanding 64-pair call per client, Zipf keys whose hot
        # set rotates twice so the policy has something to chase.
        zipf = ZipfGenerator(distinct, s=1.1, seed=7 + index)
        agent = dep.client_agent(index)
        for n in range(tasks):
            shift = n * 3 // tasks * (distinct // 3)
            items = [(f"key-{(zipf.sample_index() + shift) % distinct}", 1)
                     for _ in range(batch)]
            result = yield agent.submit(
                Task(app=reduce_cfg, items=items, expect_result=False))
            pairs["mapped"] += result.mapped_pairs
            pairs["fallback"] += result.fallback_pairs

    sim.run_until(sim.all_of([sim.process(client(i)) for i in range(2)]),
                  limit=1.0)
    snap = dep.metrics.snapshot()
    server = dep.server_agent(0)
    return {
        "event_count": sim._sequence,
        "final_time_s": sim.now,
        "link_pkts": sum(value for name, value in snap.items()
                         if name.startswith("link.")
                         and name.endswith(".sent_pkts")),
        "cache_hit_ratio":
            pairs["mapped"] / (pairs["mapped"] + pairs["fallback"]),
        "software_pairs": server.stats["software_pairs"],
        "mm_stats": dict(server.app_state("GOLD").mm.stats),
    }


def test_keyed_admission_matches_golden_snapshot():
    run = _run_keyed_once()
    assert run == GOLDEN_KEYED
    # The pin is only worth having while every admission outcome occurs.
    assert all(run["mm_stats"].values())
    assert 0 < run["cache_hit_ratio"] < 1


# --- dense SyncAgtr through the stubs -----------------------------------
# The paper's headline path as a user drives it: 2 workers x 3 rounds of
# a 1,000-float tensor (31 full chunks and one of 8) at precision 6,
# ``stub.call_async`` to reply message.  Captured on the commit before
# the dense path went columnar (one int32 column from stub to wire and
# back): packets, bytes, event order and every reply float must not
# move when host-side work is removed.
GOLDEN_DENSE = {
    "event_count": 1457,
    "final_time_s": 1.775135999999998e-05,
    "link_pkts": 584,
    "link_bytes": 109824,
    "mapped_pairs": 6000,
    "replies_sha256":
        "3b6e6e902b9367a63d4fd5837900f54dfea373b09012669db596c750045eaaa5",
}


def _run_dense_once():
    workers, rounds, length = 2, 3, 1000
    dep, reg, stubs = stub_deployment(workers, seed=7)
    grads = random_tensors(workers, rounds, length, seed=7)
    out = all_reduce(dep, reg, stubs, grads)
    replies = {key: tensor for key, (tensor, _info) in out.items()}
    digest = hashlib.sha256()
    for key in sorted(replies):
        digest.update(struct.pack(f"<{length}d", *replies[key]))
    snap = dep.metrics.snapshot()

    def links(suffix):
        return sum(value for name, value in snap.items()
                   if name.startswith("link.") and name.endswith(suffix))

    return {
        "event_count": dep.sim._sequence,
        "final_time_s": dep.sim.now,
        "link_pkts": links(".sent_pkts"),
        "link_bytes": links(".sent_bytes"),
        "mapped_pairs": sum(info.mapped_pairs for _t, info in out.values()),
        "replies_sha256": digest.hexdigest(),
    }, grads, replies


def test_dense_sync_matches_golden_snapshot():
    run, grads, replies = _run_dense_once()
    assert run == GOLDEN_DENSE
    # ... and the pinned floats are the right ones: every worker reads
    # the quantised sum of that round's tensors.
    for (_w, r), tensor in replies.items():
        for got, a, b in zip(tensor, grads[0][r], grads[1][r]):
            assert abs(got - (a + b)) <= 1e-6 + 1e-12


# --- one-pair RPCs through the stubs (the Agreement application) ---------
# Paxos on the benchmark's calibration: 2 proposers, 2 acceptors,
# 3 learners, 300 instances at window 2 — 900 RPCs of one kv pair plus
# two or three scalar fields each, where per-call host work is the whole
# cost.  Captured on the commit before message codecs were compiled into
# the descriptors and call_async got a per-method plan: host-side work
# may go, the simulated outcome may not move.
GOLDEN_ONEPAIR = {
    "event_count": 9981,
    "final_time_s": 0.002454857439999998,
    "link_pkts": 4200,
    "link_bytes": 413660,
    "p50_s": 1.0119999999999964e-05,
    "decided_sha256":
        "57f71804227bf7a3c9e589829b63ea211173ee844a61ac771a33a5a415a639cf",
}
ONEPAIR_RPCS = 300 * (1 + 2)        # a Propose and two CastVotes each


def _onepair_cluster():
    cal = scaled(host_pkt_cpu_s=1.5e-6, host_agent_cores=2)
    dep = build_rack(7, 1, cal=cal, seed=7)
    return dep, PaxosCluster(dep, proposers=["c0", "c1"],
                             acceptors=["c2", "c3"],
                             learners=["c4", "c5", "c6"])


def _onepair_outcome(dep, report):
    snap = dep.metrics.snapshot()

    def links(suffix):
        return sum(value for name, value in snap.items()
                   if name.startswith("link.") and name.endswith(suffix))

    decided = json.dumps(sorted(report.decided.items()))
    return {
        "event_count": dep.sim._sequence,
        "final_time_s": dep.sim.now,
        "link_pkts": links(".sent_pkts"),
        "link_bytes": links(".sent_bytes"),
        "p50_s": report.latency.p(50),
        "decided_sha256": hashlib.sha256(decided.encode()).hexdigest(),
    }


def test_onepair_rpcs_match_golden_snapshot():
    dep, cluster = _onepair_cluster()
    report = cluster.run(300, window=2)
    assert _onepair_outcome(dep, report) == GOLDEN_ONEPAIR
    assert report.decided == {i: f"cmd-c{i % 2}-{i}" for i in range(300)}
    assert report.latency.count == 300


def test_onepair_rpc_costs_core_a_bounded_number_of_calls():
    # Python-level calls executed inside ``repro.core`` per RPC, the
    # benchmark's ``core.calls`` / 12,000 on a run a fortieth the size
    # (the figure does not depend on the machine).  With the codec
    # walked generically per field and the binding, config and kind
    # flags re-derived per call it was 89; with both compiled once it is
    # 35.  The bound sits between the two.
    dep, cluster = _onepair_cluster()
    report, calls = count_calls(cluster.run, 300, window=2)
    # Observing changes nothing.
    assert _onepair_outcome(dep, report) == GOLDEN_ONEPAIR
    assert 0 < calls["core"] / ONEPAIR_RPCS < 46


# Python calls per one-pair RPC, by package.  With wrappers, property
# reads and re-dispatches on every hop of the per-packet path this
# cluster paid netsim 51.8, inc 50.9, protocol 36.3, core 34.7,
# switchsim 18.3, apps 6.7 — 198.7 in all; flattened, 125.4 (netsim
# 39.1, inc 34.6, core 23.0, protocol 15.7, switchsim 9.3, apps 3.7).
# The bounds sit between the two.
ONEPAIR_CALL_BUDGET = {"netsim": 45, "inc": 40, "protocol": 24,
                       "switchsim": 15, "core": 46}
ONEPAIR_TOTAL_BUDGET = 150


def test_onepair_rpc_call_budget():
    dep, cluster = _onepair_cluster()
    report, calls = count_calls(cluster.run, 300, window=2)
    assert _onepair_outcome(dep, report) == GOLDEN_ONEPAIR
    per_rpc = {package: count / ONEPAIR_RPCS
               for package, count in calls.items()}
    assert sum(per_rpc.values()) <= ONEPAIR_TOTAL_BUDGET, per_rpc
    for package, bound in ONEPAIR_CALL_BUDGET.items():
        assert 0 < per_rpc[package] <= bound, (package, per_rpc)
    assert per_rpc["core"] < ONEPAIR_CALL_BUDGET["core"]
