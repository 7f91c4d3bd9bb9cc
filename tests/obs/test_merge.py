"""Capture + merge exporter unit tests (no sharded runs here; the
end-to-end merged-trace contract lives in tests/shard/test_obs.py).
"""

import pytest

from repro.obs.capture import (
    ShardCapture,
    ShardObs,
    capture_shards,
    shard_lane,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.merge import merged_chrome_trace, stitch_flow_pairs
from repro.obs.tracer import FlightRecorder


class TestShardCapture:
    def test_capture_shards_buckets_by_epoch(self):
        rec = FlightRecorder(capacity=32)
        rec.start()
        rec.epoch = 1
        rec.record("a", 0.0, 1.0, "w0")
        rec.epoch = 2
        rec.record("b", 0.0, None, "w1")
        rec.epoch = 9            # not owned by any shard: ignored
        rec.record("c", 0.0, None, "w2")
        rec.epoch = 1
        rec.record("a", 1.0, 2.0, "w0")
        caps = capture_shards({0: 1, 1: 2}, rec,
                              metrics_of={0: {"sync": {"x": 1}}})
        assert set(caps) == {0, 1}
        assert [r[1] for r in caps[0].records] == ["a", "a"]
        # epochs rewritten to the stable merged-trace lane
        assert all(r[0] == shard_lane(0) for r in caps[0].records)
        assert caps[0].span_counts == {"a": 2}
        assert caps[0].metrics == {"sync": {"x": 1}}
        assert caps[1].span_counts == {"b": 1}
        assert caps[0].dropped == 0


def _obs_with(records_by_shard, rounds=None):
    captures = {}
    for sid, records in records_by_shard.items():
        counts = {}
        for rec in records:
            counts[rec[1]] = counts.get(rec[1], 0) + 1
        captures[sid] = ShardCapture(
            shard_id=sid, records=records,
            span_counts=counts, total=len(records), dropped=0)
    return ShardObs(captures=captures, rounds=rounds or [],
                    shards={sid: {"events": len(records), "work_s": 0.0,
                                  "clock_s": 1.0}
                            for sid, records in records_by_shard.items()},
                    transport={"rounds": 1})


class TestStitching:
    def test_pairs_cross_lanes_only(self):
        egress = (shard_lane(0), "link.serialize", 0.0, 1e-6,
                  "h0->sw", (5, 0))
        ingress = (shard_lane(1), "boundary.deliver", 2e-6, None,
                   "h0->sw", (5, 0))
        same_lane = (shard_lane(0), "boundary.deliver", 3e-6, None,
                     "h9->sw", (6, 0))
        same_egress = (shard_lane(0), "link.serialize", 2.5e-6, 3e-6,
                       "h9->sw", (6, 0))
        obs = _obs_with({0: [egress, same_egress, same_lane],
                         1: [ingress]})
        pairs = stitch_flow_pairs(obs.captures)
        assert len(pairs) == 1
        key, src, dst = pairs[0]
        assert key == ("h0->sw", 5, 0)
        assert src[0] == shard_lane(0) and dst[0] == shard_lane(1)

    def test_argless_serialize_never_stitches(self):
        obs = _obs_with({0: [(1, "link.serialize", 0.0, 1e-6,
                              "a->b", None)],
                         1: [(2, "boundary.deliver", 2e-6, None,
                              "a->b", None)]})
        assert stitch_flow_pairs(obs.captures) == []


class TestMergedTrace:
    def _round(self, n):
        return {"round": n, "clocks": [0.0, 0.0],
                "horizons": [1e-5, 2e-5], "bases": [None, 5e-6],
                "moved": 2, "frames": 1, "bytes": 100,
                "skipped": 0}

    def test_merged_trace_validates(self):
        obs = _obs_with(
            {0: [(shard_lane(0), "link.serialize", 0.0, 1e-6,
                  "h0->sw", (5, 0))],
             1: [(shard_lane(1), "boundary.deliver", 2e-6, None,
                  "h0->sw", (5, 0))]},
            rounds=[self._round(1)])
        trace = merged_chrome_trace(obs)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert pids == {0, shard_lane(0), shard_lane(1)}
        names = {e["name"] for e in events}
        assert {"barrier.round", "transport", "sync",
                "xshard.flow"} <= names
        process_names = {e["args"]["name"] for e in events
                         if e["name"] == "process_name"}
        assert {"coordinator", "shard 0", "shard 1"} <= process_names
        assert trace["otherData"]["flow_pairs"] == 1

    def test_counter_tracks_have_args(self):
        obs = _obs_with({0: []}, rounds=[self._round(1), self._round(2)])
        trace = merged_chrome_trace(obs)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 4          # transport + sync per round
        assert all(isinstance(e["args"], dict) for e in counters)

    def test_infinite_base_becomes_null(self):
        entry = self._round(1)
        entry["bases"] = [float("inf"), 1e-6]
        obs = _obs_with({0: []}, rounds=[entry])
        trace = merged_chrome_trace(obs)
        spans = [e for e in trace["traceEvents"]
                 if e["name"] == "barrier.round"]
        assert spans and spans[0]["args"]["base_s"] is None


class TestFlowValidation:
    def _base(self, events):
        names = {}
        for e in events:
            if e.get("ph") != "M":
                names[e["name"]] = names.get(e["name"], 0) + 1
        return {"traceEvents": events,
                "otherData": {"span_counts": names,
                              "dropped_records": 0}}

    def _flow(self, ph, fid=1, **kw):
        event = {"name": "xshard.flow", "ph": ph, "id": fid,
                 "pid": 1, "tid": 1, "ts": 1.0}
        event.update(kw)
        return event

    def test_paired_flow_accepted(self):
        trace = self._base([self._flow("s"), self._flow("f", pid=2)])
        assert validate_chrome_trace(trace) == []

    @pytest.mark.parametrize("ph", ["s", "f"])
    def test_unpaired_flow_rejected(self, ph):
        trace = self._base([self._flow(ph)])
        problems = validate_chrome_trace(trace)
        assert any("unpaired" in p for p in problems)

    def test_flow_without_id_rejected(self):
        event = self._flow("s")
        del event["id"]
        problems = validate_chrome_trace(self._base([event]))
        assert any("without id" in p for p in problems)

    def test_counter_without_args_rejected(self):
        event = {"name": "c", "ph": "C", "pid": 1, "tid": 1, "ts": 0.0}
        problems = validate_chrome_trace(self._base([event]))
        assert any("counter" in p for p in problems)
