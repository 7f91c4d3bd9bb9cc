"""Exporter + validator tests, plus the traced end-to-end contract:

* a traced run produces Perfetto-loadable JSON that passes the schema
  validator and a metrics JSONL whose span counters agree with it;
* enabling tracing changes *nothing* about the simulation — goodput,
  event counts and result values stay bit-identical (the golden pin).
"""

import json

import pytest

from repro.control import build_rack
from repro.experiments.common import run_sync_aggregation
from repro.obs import (
    TRACE,
    FlightRecorder,
    chrome_trace,
    keep_registries,
    load_metrics_jsonl,
    load_trace,
    metrics_path_for,
    run_traced,
    validate_chrome_trace,
)


@pytest.fixture
def clean_trace():
    """Run with the process-wide recorder disarmed before and after."""
    TRACE.clear()
    keep_registries(False)
    yield
    TRACE.clear()
    keep_registries(False)


class TestChromeTrace:
    def _recorder(self):
        rec = FlightRecorder(capacity=64)
        rec.start()
        rec.record("link.serialize", 0.0, 1e-6, "c0->sw0")
        rec.record("link.propagate", 1e-6, 2e-6, "c0->sw0")
        rec.instant("link.drop", 2e-6, "c0->sw0", ("queue",))
        rec.instant("flow.retx", 3e-6, "c0", (0, 5, "rto"))
        rec.stop()
        return rec

    def test_spans_become_complete_events(self):
        trace = chrome_trace(self._recorder())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 2
        assert spans[0]["ts"] == pytest.approx(0.0)
        assert spans[0]["dur"] == pytest.approx(1.0)

    def test_instants_and_named_args(self):
        trace = chrome_trace(self._recorder())
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == 2
        retx = next(e for e in instants if e["name"] == "flow.retx")
        assert retx["args"] == {"flow": 0, "seq": 5, "cause": "rto"}

    def test_metadata_names_threads(self):
        trace = chrome_trace(self._recorder())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"c0->sw0", "c0"}

    def test_span_counts_in_other_data(self):
        trace = chrome_trace(self._recorder())
        assert trace["otherData"]["span_counts"] == {
            "link.serialize": 1, "link.propagate": 1,
            "link.drop": 1, "flow.retx": 1}
        assert trace["otherData"]["dropped_records"] == 0

    def test_valid_by_construction(self):
        assert validate_chrome_trace(chrome_trace(self._recorder())) == []

    def test_epochs_become_pids(self):
        rec = FlightRecorder(capacity=16)
        rec.start()
        rec.record("a", 5.0, 6.0, "w")     # epoch 0
        rec.begin_epoch()
        rec.record("a", 0.0, 1.0, "w")     # epoch 1: earlier ts, later pid
        trace = chrome_trace(rec)
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}


class TestValidator:
    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_rejects_non_monotonic_ts_within_pid(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 5},
            {"name": "a", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 4},
        ]}
        assert any("not monotonic" in p
                   for p in validate_chrome_trace(trace))

    def test_rejects_negative_ts_and_missing_dur(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": -1, "dur": 1},
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("bad ts" in p for p in problems)
        assert any("without valid dur" in p for p in problems)

    def test_rejects_unbalanced_begin_end(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0},
            {"name": "b", "ph": "B", "pid": 1, "tid": 1, "ts": 1},
            {"name": "b", "ph": "E", "pid": 1, "tid": 1, "ts": 2},
        ]}
        assert any("unbalanced" in p for p in validate_chrome_trace(trace))

    def test_rejects_span_count_mismatch(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 0},
        ], "otherData": {"span_counts": {"a": 2}, "dropped_records": 0}}
        assert any("span/metrics mismatch" in p
                   for p in validate_chrome_trace(trace))

    def test_rejects_metrics_disagreement(self):
        rec = FlightRecorder(capacity=8)
        rec.start()
        rec.instant("a", 0.0, "w")
        trace = chrome_trace(rec)
        metrics = [{"registry": "flight-recorder", "metric": "spans",
                    "values": {"a": 99}}]
        assert any("disagrees" in p
                   for p in validate_chrome_trace(trace, metrics))


class TestTracedRunEndToEnd:
    def test_run_traced_exports_valid_trace_and_metrics(
            self, tmp_path, clean_trace):
        trace_path = tmp_path / "trace.json"
        result = run_traced(run_sync_aggregation, trace_path,
                            n_values=512, seed=3)
        assert result.goodput_gbps > 0
        assert not TRACE.enabled          # disarmed afterwards

        trace = load_trace(trace_path)
        metrics = load_metrics_jsonl(metrics_path_for(trace_path))
        assert validate_chrome_trace(trace, metrics) == []

        counts = trace["otherData"]["span_counts"]
        for kind in ("link.serialize", "link.propagate", "host.cpu",
                     "switch.pipeline", "regs.kernel", "flow.tx",
                     "flow.ack", "client.task"):
            assert counts.get(kind, 0) > 0, f"no {kind} spans recorded"

        registries = {m["registry"] for m in metrics}
        assert "flight-recorder" in registries
        assert any(r.startswith("deployment") for r in registries)
        entries = {m["metric"] for m in metrics
                   if m["registry"].startswith("deployment")}
        assert "pipeline.sw0" in entries
        assert "control.audit" in entries

    def test_tracing_does_not_change_the_simulation(self, clean_trace):
        baseline = run_sync_aggregation(n_values=512, seed=3)
        base_events = _event_count(seed=3)

        TRACE.start()
        try:
            traced = run_sync_aggregation(n_values=512, seed=3)
            traced_events = _event_count(seed=3)
        finally:
            TRACE.clear()

        assert traced.goodput_gbps == baseline.goodput_gbps
        assert traced.elapsed_s == baseline.elapsed_s
        assert traced.retransmits == baseline.retransmits
        assert traced_events == base_events

    def test_ring_eviction_keeps_trace_valid(self, tmp_path, clean_trace):
        trace_path = tmp_path / "tiny.json"
        run_traced(run_sync_aggregation, trace_path, capacity=256,
                   n_values=512, seed=3)
        trace = load_trace(trace_path)
        assert trace["otherData"]["dropped_records"] > 0
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] != "M"]) == 256
        metrics = load_metrics_jsonl(metrics_path_for(trace_path))
        assert validate_chrome_trace(trace, metrics) == []

    def test_trace_json_is_perfetto_loadable_shape(
            self, tmp_path, clean_trace):
        trace_path = tmp_path / "shape.json"
        run_traced(run_sync_aggregation, trace_path, n_values=512, seed=3)
        raw = json.loads(trace_path.read_text())
        assert isinstance(raw["traceEvents"], list)
        assert raw["traceEvents"], "trace must be non-empty"
        for event in raw["traceEvents"][:50]:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(event)


def _event_count(seed: int) -> int:
    """Golden determinism pin: total events of the micro deployment."""
    deployment = build_rack(2, 1, seed=seed)
    run_sync_aggregation(n_values=512, seed=seed, deployment=deployment)
    return deployment.sim._sequence


class TestDeploymentRegistry:
    def test_registry_spans_every_layer(self):
        deployment = build_rack(2, 1, seed=0)
        names = deployment.metrics.names()
        assert "sim" in names
        assert any(n.startswith("link.") for n in names)
        assert "switch.sw0" in names
        assert "pipeline.sw0" in names
        assert any(n.startswith("client.") for n in names)
        assert any(n.startswith("server.") for n in names)
        assert "control.audit" in names

    def test_snapshot_diff_over_a_run(self):
        deployment = build_rack(2, 1, seed=0)
        before = deployment.metrics.snapshot()
        run_sync_aggregation(n_values=512, seed=0, deployment=deployment)
        diff = deployment.metrics.diff(before,
                                       deployment.metrics.snapshot())
        assert diff.get("sim.events", 0) > 0
        # Counters that were empty before the run surface as +key.
        assert any(key.lstrip("+").startswith("pipeline.sw0.")
                   for key in diff)
