"""Flight-recorder unit tests: ring semantics, counts, lifecycle."""

import pytest

from repro.obs import DEFAULT_CAPACITY, FlightRecorder


class TestLifecycle:
    def test_starts_disabled(self):
        rec = FlightRecorder()
        assert not rec.enabled
        assert len(rec.records()) == 0
        assert rec.records() == []

    def test_start_arms_and_clears(self):
        rec = FlightRecorder(capacity=4)
        rec.start()
        assert rec.enabled
        rec.record("a", 0.0, 1.0, "x")
        rec.start()
        assert rec.total == 0
        assert rec.records() == []
        assert rec.counts == {}

    def test_start_resizes(self):
        rec = FlightRecorder()
        rec.start(capacity=8)
        assert rec.capacity == 8
        with pytest.raises(ValueError):
            rec.start(capacity=0)

    def test_stop_keeps_data(self):
        rec = FlightRecorder(capacity=4)
        rec.start()
        rec.record("a", 0.0, 1.0, "x")
        rec.stop()
        assert not rec.enabled
        assert len(rec.records()) == 1

    def test_clear_releases_everything(self):
        rec = FlightRecorder(capacity=4)
        rec.start()
        rec.record("a", 0.0, 1.0, "x")
        rec.clear()
        assert not rec.enabled
        assert rec.total == 0
        assert rec.records() == []
        assert rec.counts == {}

    def test_record_before_start_arms_lazily(self):
        rec = FlightRecorder(capacity=4)
        rec.record("a", 0.0, 1.0, "x")
        assert rec.enabled
        assert len(rec.records()) == 1

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY


class TestRing:
    def test_records_in_insertion_order(self):
        rec = FlightRecorder(capacity=8)
        rec.start()
        for i in range(5):
            rec.record("k", float(i), float(i) + 1, "w")
        starts = [r[2] for r in rec.records()]
        assert starts == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rec.dropped == 0

    def test_eviction_drops_oldest_first(self):
        rec = FlightRecorder(capacity=3)
        rec.start()
        for i in range(5):
            rec.record("k", float(i), None, "w")
        starts = [r[2] for r in rec.records()]
        assert starts == [2.0, 3.0, 4.0]
        assert rec.dropped == 2
        assert len(rec.records()) == 3
        assert rec.total == 5

    def test_exact_capacity_boundary(self):
        rec = FlightRecorder(capacity=3)
        rec.start()
        for i in range(3):
            rec.record("k", float(i), None, "w")
        assert rec.dropped == 0
        assert [r[2] for r in rec.records()] == [0.0, 1.0, 2.0]

    def test_counts_survive_eviction(self):
        rec = FlightRecorder(capacity=2)
        rec.start()
        for _ in range(5):
            rec.record("a", 0.0, None, "w")
        rec.record("b", 0.0, None, "w")
        assert rec.counts.get("a", 0) == 5
        assert rec.counts.get("b", 0) == 1
        assert rec.counts.get("missing", 0) == 0


class TestRecordShape:
    def test_span_tuple_fields(self):
        rec = FlightRecorder(capacity=4)
        rec.start()
        rec.record("link.serialize", 1.0, 2.0, "c0->sw0", ("x",))
        (epoch, kind, start, end, where, args) = rec.records()[0]
        assert (kind, start, end, where, args) == \
            ("link.serialize", 1.0, 2.0, "c0->sw0", ("x",))

    def test_instant_has_no_end(self):
        rec = FlightRecorder(capacity=4)
        rec.start()
        rec.instant("link.drop", 3.0, "l", ("queue",))
        record = rec.records()[0]
        assert record[3] is None
        assert record[5] == ("queue",)

    def test_epochs_stamp_records(self):
        rec = FlightRecorder(capacity=8)
        rec.start()
        rec.record("a", 0.0, None, "w")
        rec.begin_epoch()
        rec.record("b", 0.0, None, "w")
        epochs = [r[0] for r in rec.records()]
        assert epochs == [0, 1]
