"""MetricsRegistry unit tests: naming, snapshot/diff."""

import json

import pytest

from repro.netsim import Counter, LatencyRecorder, RateMeter
from repro.obs import (
    MetricsRegistry,
    all_registries,
    collected_snapshots,
    keep_registries,
)


class TestRegistration:
    def test_register_returns_object(self):
        reg = MetricsRegistry("t")
        counter = Counter()
        assert reg.register("a", counter) is counter
        assert "a" in reg
        assert len(reg) == 1

    def test_duplicate_names_get_suffix(self):
        reg = MetricsRegistry("t")
        reg.register("a", Counter())
        reg.register("a", Counter())
        reg.register("a", Counter())
        assert reg.names() == ["a", "a#2", "a#3"]

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
        lat = reg.register("lat", LatencyRecorder())
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

    def test_diff_reports_numeric_deltas_only_for_changes(self):
        reg = MetricsRegistry("t")
        counter = reg.register("c", Counter())
        counter.add("x", 1)
        counter.add("same", 5)
        before = reg.snapshot()
        counter.add("x", 4)
        diff = MetricsRegistry.diff(before, reg.snapshot())
        assert diff == {"c.x": 4}

    def test_diff_marks_added_and_removed_keys(self):
        diff = MetricsRegistry.diff({"gone": 1, "kept": 2},
                                    {"kept": 2, "new": 3})
        assert diff == {"+new": 3, "-gone": 1}

    def test_export_jsonl_round_trips(self, tmp_path):
        reg = self._loaded()
        path = tmp_path / "metrics.jsonl"
        lines = reg.export_jsonl(path)
        assert lines == 4
        parsed = [json.loads(line) for line in
                  path.read_text().splitlines()]
        assert {p["metric"] for p in parsed} == \
            {"pkts", "lat", "rate", "raw"}
        assert all(p["registry"] == reg.name for p in parsed)


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
