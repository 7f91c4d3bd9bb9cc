"""MetricsRegistry unit tests: naming, snapshots."""

import json

import pytest

from repro.netsim import Counter, LatencyRecorder, RateMeter
from repro.obs import (
    MetricsRegistry,
    all_registries,
    collected_snapshots,
    keep_registries,
)
from repro.obs.export import write_metrics_jsonl


class TestRegistration:
    def test_register_returns_object(self):
        reg = MetricsRegistry("t")
        counter = Counter()
        assert reg.register("a", counter) is counter
        assert list(reg.snapshot_nested()) == ["a"]

    def test_duplicate_names_get_suffix(self):
        reg = MetricsRegistry("t")
        reg.register("a", Counter())
        reg.register("a", Counter())
        reg.register("a", Counter())
        assert list(reg.snapshot_nested()) == ["a", "a#2", "a#3"]

    def test_unknown_instrument_requires_snapshot(self):
        reg = MetricsRegistry("t")
        with pytest.raises(TypeError):
            reg.register("x", object())
        reg.register("x", object(), snapshot=lambda _: {"v": 1})
        assert reg.snapshot() == {"x.v": 1}


class TestSnapshotDiff:
    def _loaded(self):
        reg = MetricsRegistry("t")
        counter = reg.register("pkts", Counter())
        counter.add("rx", 3)
        lat = reg.register("lat", LatencyRecorder(),
                           snapshot=lambda rec: {"count": rec.count})
        lat.record(0.5)
        meter = reg.register("rate", RateMeter(bucket_s=0.01))
        meter.record(0.0, 1000)
        reg.register("raw", {"k": 1})
        return reg

    def test_snapshot_is_flat_and_namespaced(self):
        snap = self._loaded().snapshot()
        assert snap["pkts.rx"] == 3
        assert snap["lat.count"] == 1
        assert snap["rate.total_bytes"] == 1000
        assert snap["raw.k"] == 1

    def test_snapshot_nested_one_dict_per_instrument(self):
        nested = self._loaded().snapshot_nested()
        assert nested["pkts"] == {"rx": 3}
        assert set(nested) == {"pkts", "lat", "rate", "raw"}

    def test_export_jsonl_round_trips(self, tmp_path):
        reg = self._loaded()
        path = tmp_path / "metrics.jsonl"
        lines = write_metrics_jsonl(path)
        parsed = [json.loads(line) for line in
                  path.read_text().splitlines()]
        assert lines == len(parsed)
        mine = [p for p in parsed if p["registry"] == reg.name]
        assert sorted(p["metric"] for p in mine) == \
            ["lat", "pkts", "rate", "raw"]
        assert {p["metric"]: p["values"] for p in mine}["pkts"] == \
            {"rx": 3}


class TestCollection:
    def test_keep_registries_collects_and_releases(self):
        keep_registries(True)
        try:
            reg = MetricsRegistry("kept")
            reg.register("c", Counter()).add("x")
            assert reg in all_registries()
            collected = dict(collected_snapshots())
            assert reg.name in collected
            assert collected[reg.name]["c"] == {"x": 1}
        finally:
            keep_registries(False)
