"""Distributed observability: tracing a sharded run observes only.

The contract under test (ISSUE 10 / DESIGN.md §4.11):

* arming the flight recorder around ``run_sharded`` leaves every
  result bit (fingerprints, flow records, link counters, event
  censuses) identical;
* the merged Chrome/Perfetto trace is schema-valid, has one pid lane
  per shard plus the coordinator, barrier-round spans, transport
  counter tracks, and cross-shard flow events whose s/f endpoints
  pair across lanes;
* a single-shard sharded run records exactly what the single-simulator
  reference records on the same (cut-free) topology;
* the always-on ``shard-run`` registry namespace exposes per-shard
  scheduler/sync stats to the metrics JSONL and diff.

Runs are memoized per (scenario, traced) so the suite pays for each
configuration once.
"""

import json

import pytest

from repro.experiments.exp_fattree import build_scenario
from repro.obs.export import validate_chrome_trace, write_metrics_jsonl
from repro.obs.merge import merged_chrome_trace, stitch_flow_pairs
from repro.obs.registry import keep_registries
from repro.obs.tracer import DEFAULT_CAPACITY, TRACE
from repro.shard import partition_structure, run_sharded, run_unsharded


@pytest.fixture(autouse=True)
def clean_trace():
    """Run with the process-wide recorder disarmed before and after."""
    TRACE.clear()
    keep_registries(False)
    yield
    TRACE.clear()
    keep_registries(False)


_RUNS = {}


def _run(scenario="rack2", traced=False):
    key = (scenario, traced)
    if key not in _RUNS:
        scenario_obj, partition = build_scenario(scenario, fast=True,
                                                 seed=0)
        if traced:
            TRACE.clear()
            # explicit capacity: an earlier test may have shrunk the
            # process-wide ring, and start() inherits the last size
            TRACE.start(capacity=DEFAULT_CAPACITY)
        try:
            _RUNS[key] = run_sharded(scenario_obj, partition=partition)
        finally:
            if traced:
                TRACE.stop()
                TRACE.clear()
                keep_registries(False)
    return _RUNS[key]


class TestTracingObservesOnly:
    def test_traced_inprocess_bit_identical(self):
        baseline = _run(traced=False)
        traced = _run(traced=True)
        assert traced.comparable_state() == baseline.comparable_state()
        assert set(traced.obs.captures) == {0, 1}
        for cap in traced.obs.captures.values():
            assert cap.total > 0 and cap.dropped == 0

    def test_untraced_run_carries_no_obs(self):
        result = _run(traced=False)
        assert result.obs is None
        # ... but the metrics namespace is always there (satellite 1)
        assert result.registry is not None


class TestMergedTrace:
    def test_rack4_merged_trace_shape(self, tmp_path):
        result = _run("rack4", traced=True)
        obs = result.obs
        trace = merged_chrome_trace(obs)
        assert validate_chrome_trace(trace) == []

        events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        pids = {e["pid"] for e in events}
        # coordinator lane + one lane per shard
        assert pids == {0, 1, 2, 3, 4}

        barrier_spans = [e for e in events
                        if e["name"] == "barrier.round"]
        assert len(barrier_spans) == result.rounds * result.n_shards
        assert all(e["pid"] == 0 for e in barrier_spans)
        rounds_seen = {e["args"]["round"] for e in barrier_spans}
        assert rounds_seen == set(range(1, result.rounds + 1))

        counters = [e for e in events if e["ph"] == "C"]
        counter_names = {e["name"] for e in counters}
        assert counter_names == {"transport", "sync"}
        transport_args = [e["args"] for e in counters
                          if e["name"] == "transport"]
        assert sum(a["frames"] for a in transport_args) \
            == result.frames_sent
        assert sum(a["bytes"] for a in transport_args) \
            == result.transport_bytes

        assert trace["otherData"]["flow_pairs"] >= 1
        assert trace["otherData"]["transport"]["rounds"] == result.rounds

    def test_flow_endpoints_pair_across_lanes(self):
        obs = _run("rack4", traced=True).obs
        trace = merged_chrome_trace(obs)
        starts = {}
        finishes = {}
        for event in trace["traceEvents"]:
            if event.get("ph") == "s":
                starts[event["id"]] = event
            elif event.get("ph") == "f":
                finishes[event["id"]] = event
        assert starts and set(starts) == set(finishes)
        for fid, s in starts.items():
            f = finishes[fid]
            assert s["pid"] != f["pid"]
            assert s["pid"] >= 1 and f["pid"] >= 1
            assert s["ts"] <= f["ts"]
            assert s["args"] == f["args"]

        # the exporter emitted exactly the pairs the stitcher found
        assert len(starts) == len(stitch_flow_pairs(obs.captures))

    def test_write_merged_trace_files(self, tmp_path):
        from repro.obs.merge import write_merged_trace

        obs = _run(traced=True).obs
        trace_path, metrics_path = write_merged_trace(
            obs, tmp_path / "shard_trace.json")
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        lines = [json.loads(line) for line in
                 metrics_path.read_text().splitlines()]
        registries = {line["registry"] for line in lines}
        assert {"flight-recorder", "shard0", "shard1",
                "coordinator"} <= registries


class TestSingleShardReference:
    def test_span_counts_match_unsharded_reference(self):
        """A one-shard partition has no cut links, so the sharded run
        must record exactly what the plain simulator records."""
        scenario_obj, _ = build_scenario("rack2", fast=True, seed=0)
        partition = partition_structure(scenario_obj.structure, 1,
                                        cal=scenario_obj.cal)
        assert not partition.cut_links

        TRACE.clear()
        TRACE.start(capacity=DEFAULT_CAPACITY)
        try:
            sharded = run_sharded(scenario_obj, partition=partition)
            capture = sharded.obs.captures[0]
            TRACE.start()          # fresh buffer, still armed
            reference = run_unsharded(scenario_obj)
            ref_records = TRACE.records()
        finally:
            TRACE.stop()
            TRACE.clear()
            keep_registries(False)

        assert sharded.fingerprint == reference.fingerprint
        ref_counts = {}
        for rec in ref_records:
            ref_counts[rec[1]] = ref_counts.get(rec[1], 0) + 1
        assert capture.span_counts == ref_counts
        # identical timelines modulo the lane id the capture stamps
        assert [rec[1:] for rec in capture.records] \
            == [rec[1:] for rec in ref_records]


class TestRegistryNamespace:
    def test_shard_run_registry_contents(self):
        result = _run(traced=False)
        registry = result.registry
        assert registry is not None
        names = set(registry.snapshot_nested())
        assert {"shard0.scheduler", "shard0.sync",
                "shard1.scheduler", "shard1.sync", "transport"} <= names
        snap = registry.snapshot_nested()
        assert snap["shard0.sync"]["events"] \
            == result.events_per_shard[0]
        assert snap["transport"]["rounds"] == result.rounds
        assert snap["transport"]["frames_sent"] == result.frames_sent
        assert registry.snapshot() == registry.snapshot()

    def test_export_jsonl_covers_sharded_run(self, tmp_path):
        result = _run(traced=False)
        path = tmp_path / "shard_metrics.jsonl"
        write_metrics_jsonl(path)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()
                 if json.loads(line)["registry"] == result.registry.name]
        assert result.registry.name.startswith("shard-run")
        assert len(lines) == len(result.registry.snapshot_nested())
        assert {line["metric"] for line in lines} \
            == set(result.registry.snapshot_nested())
