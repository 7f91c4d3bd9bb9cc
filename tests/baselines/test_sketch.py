"""Tests for the ElasticSketch baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ElasticSketch, SketchPacket, SketchSwitch
from repro.netsim import Host, Simulator, scaled, star
from repro.workloads import SyntheticTrace

CAL = scaled()


class TestElasticSketchStructure:
    def test_single_flow_exact(self):
        sketch = ElasticSketch()
        for _ in range(100):
            sketch.insert("flow-a")
        assert sketch.query("flow-a") == 100

    def test_unseen_flow_estimates_small(self):
        sketch = ElasticSketch()
        sketch.insert("flow-a", 50)
        assert sketch.query("flow-zzz") <= 50

    def test_estimates_never_undercount_much(self):
        """Count-min style: estimates are upper bounds per flow (when the
        heavy bucket is clean) or near the true count."""
        sketch = ElasticSketch(heavy_buckets=64, light_counters=1024)
        trace = SyntheticTrace(n_flows=200, seed=4)
        records = list(trace.packets(5000))
        truth = trace.exact_counts(records)
        for record in records:
            sketch.insert(record.flow_id)
        for flow, count in truth.items():
            assert sketch.query(flow) >= count  # no undercounting

    def test_heavy_hitters_found(self):
        sketch = ElasticSketch()
        trace = SyntheticTrace(n_flows=500, seed=1)
        records = list(trace.packets(20_000))
        truth = trace.exact_counts(records)
        for record in records:
            sketch.insert(record.flow_id)
        ranked = sorted(truth, key=truth.get, reverse=True)
        top_true, rest = ranked[:5], ranked[5:]
        threshold = truth[top_true[-1]]
        # The heavy part holds the top flows exactly, and no other
        # flow's estimate reaches the threshold.
        assert all(sketch.query(flow) == truth[flow] for flow in top_true)
        assert all(sketch.query(flow) < threshold for flow in rest)

    def test_eviction_moves_counts_to_light_part(self):
        sketch = ElasticSketch(heavy_buckets=1, eviction_lambda=1)
        sketch.insert("a", 2)
        for _ in range(10):
            sketch.insert("b")   # votes against "a" until eviction
        assert sketch.query("a") >= 2
        assert sketch.query("b") >= 10

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ElasticSketch(heavy_buckets=0)

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                    max_size=200))
    def test_property_total_mass_preserved_or_overcounted(self, flows):
        sketch = ElasticSketch(heavy_buckets=2, light_counters=64)
        truth = {}
        for flow in flows:
            sketch.insert(flow)
            truth[flow] = truth.get(flow, 0) + 1
        for flow, count in truth.items():
            assert sketch.query(flow) >= count


class TestSketchSwitch:
    def build(self):
        sim = Simulator()
        switch = SketchSwitch(sim, "sw0", cal=CAL)
        monitor = Host(sim, "m0")
        star(sim, switch, [monitor], cal=CAL)
        return sim, switch, monitor

    def test_reports_are_absorbed_at_switch(self):
        sim, switch, monitor = self.build()
        monitor.send(SketchPacket(kind="report", src="m0", dst="sw0",
                                  flows={"f": 3}), "sw0")
        sim.run()
        assert switch.sketch.query("f") == 3
        assert switch.stats["reports"] == 1

    def test_queries_bounce_with_estimates(self):
        sim, switch, monitor = self.build()
        replies = []
        monitor.set_handler(lambda p: replies.append(p))
        monitor.send(SketchPacket(kind="report", src="m0", dst="sw0",
                                  flows={"f": 7}), "sw0")
        monitor.send(SketchPacket(kind="query", src="m0", dst="sw0",
                                  flows={"f": 0}), "sw0")
        sim.run()
        assert len(replies) == 1
        assert replies[0].flows["f"] == 7
