"""Unit tests for counters, meters, and percentiles."""

import pytest

from repro.netsim import (
    Counter,
    LatencyRecorder,
    RateMeter,
    mean,
    percentile,
)


class TestStatFunctions:
    def test_mean_of_values(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_percentile_endpoints(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_percentile_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_percentile_unsorted_input(self):
        assert percentile([5, 1, 3], 50) == 3

    def test_percentile_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestCounter:
    def test_default_is_zero(self):
        assert Counter()["missing"] == 0

    def test_add_accumulates(self):
        c = Counter()
        c.add("pkts")
        c.add("pkts", 2)
        assert c["pkts"] == 3

    def test_as_dict_snapshot(self):
        c = Counter()
        c.add("a", 5)
        snap = c.as_dict()
        c.add("a")
        assert snap == {"a": 5}

    def test_missing_key_reads_zero_without_inserting(self):
        c = Counter()
        assert c["missing"] == 0
        assert c.get("missing") is None     # ``get`` is plain dict.get
        assert c.get("missing", None) is None
        assert "missing" not in c and c.as_dict() == {}
        c["hit"] += 2                       # the hot-path spelling
        assert c.as_dict() == {"hit": 2}

    def test_as_dict_is_a_detached_plain_dict(self):
        c = Counter()
        c.add("a")
        snap = c.as_dict()
        assert type(snap) is dict
        snap["a"] = 99
        snap["b"] = 1
        assert c.as_dict() == {"a": 1}


class TestRateMeter:
    def test_average_rate(self):
        meter = RateMeter(bucket_s=1.0)
        meter.record(0.5, 125_000_000)  # 1 Gbit in bucket 0
        meter.record(1.5, 125_000_000)  # 1 Gbit in bucket 1
        assert meter.average_gbps(0.0, 2.0) == pytest.approx(1.0)

    def test_series_buckets(self):
        meter = RateMeter(bucket_s=0.5)
        meter.record(0.1, 1000)
        meter.record(0.2, 1000)
        meter.record(0.7, 500)
        series = dict(meter.series())
        assert series[0.0] == pytest.approx(2000 * 8 / 0.5 / 1e9)
        assert series[0.5] == pytest.approx(500 * 8 / 0.5 / 1e9)

    def test_empty_meter_rate_is_zero(self):
        assert RateMeter().average_gbps() == 0.0

    def test_bucket_size_validated(self):
        with pytest.raises(ValueError):
            RateMeter(bucket_s=0)


class TestLatencyRecorder:
    def test_summary_statistics(self):
        rec = LatencyRecorder("rpc")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            rec.record(v)
        assert rec.count == 5
        assert rec.mean() == pytest.approx(22.0)
        assert rec.p(50) == 3.0
        assert rec.p(100) == 100.0

    def test_p99_dominated_by_tail(self):
        rec = LatencyRecorder()
        for _ in range(99):
            rec.record(1.0)
        rec.record(1000.0)
        # Interpolated p99 sits between the 98th and 99th order statistic.
        assert rec.p(99) > 10.0
        assert rec.p(100) == 1000.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_empty_summary(self):
        assert LatencyRecorder().count == 0


class TestPercentileEdges:
    def test_single_element_any_pct(self):
        for pct in (0, 37.5, 50, 99, 100):
            assert percentile([7.0], pct) == 7.0

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.001)
        with pytest.raises(ValueError):
            percentile([1.0], 100.001)

    def test_rank_exactly_on_order_statistic(self):
        # pct=25 of 5 elements -> rank 1.0 exactly: no interpolation.
        assert percentile([10, 20, 30, 40, 50], 25) == 20

    def test_interpolation_between_adjacent_elements(self):
        # pct=10 of 2 elements -> rank 0.1: 0.9*1 + 0.1*2.
        assert percentile([1.0, 2.0], 10) == pytest.approx(1.1)

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([5, 1, 3, 2, 4], 50) == 3


class TestRateMeterWindows:
    def test_average_window_bucket_boundaries(self):
        # bucket_s=0.01: bytes at t=0.005 land in bucket 0 ([0, 0.01)).
        meter = RateMeter(bucket_s=0.01)
        meter.record(0.005, 125)     # bucket 0
        meter.record(0.015, 250)     # bucket 1
        meter.record(0.025, 500)     # bucket 2
        # [0.01, 0.02): bucket 1 only (bucket 0 below start, bucket 2
        # at end is excluded by the half-open filter).
        assert meter.average_gbps(0.01, 0.02) == \
            pytest.approx(250 * 8 / 0.01 / 1e9)

    def test_average_window_end_excludes_boundary_bucket(self):
        meter = RateMeter(bucket_s=0.01)
        meter.record(0.000, 100)
        meter.record(0.010, 900)
        # end=0.01 excludes the bucket starting exactly at 0.01.
        assert meter.average_gbps(0.0, 0.01) == \
            pytest.approx(100 * 8 / 0.01 / 1e9)

    def test_default_span_is_first_to_last(self):
        meter = RateMeter(bucket_s=0.01)
        meter.record(0.0, 1000)
        meter.record(0.5, 1000)
        # Default span [0, 0.5): the bucket at 0.5 falls outside, so
        # only the first 1000 bytes count over the 0.5 s span.
        assert meter.average_gbps() == pytest.approx(1000 * 8 / 0.5 / 1e9)

    def test_degenerate_window_is_zero(self):
        meter = RateMeter()
        meter.record(1.0, 100)
        assert meter.average_gbps(2.0, 2.0) == 0.0
        assert meter.average_gbps(3.0, 2.0) == 0.0
