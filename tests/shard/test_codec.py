"""The logical frame size the shard transport telemetry counts."""

from repro.shard.codec import frame_nbytes


def test_record_layout_is_pinned():
    # 41 bytes/record and a 5-byte header: ``transport_bytes`` and the
    # benchmark's ``shard.transport_bytes`` bake these in.
    assert frame_nbytes(0) == 5
    assert frame_nbytes(10) == 5 + 410
