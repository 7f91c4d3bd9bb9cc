"""Logical frame size of boundary traffic.

A *frame* is one round's deliveries for one directed shard channel:
``count`` records of ``(cut link, deliver time, FlowPacket)``.  Its
logical size is that of a fixed-width wire form — a 5-byte header
(kind u8, count u32) and 41 bytes per record (link id u32, deliver
time f64, flow id i64, seq i64, src id u32, dst id u32, size u32, ecn
u8) — which the transport telemetry (``frames_sent``,
``transport_bytes``) counts.  Frames themselves stay Python lists:
every shard runs in one process.
"""

from __future__ import annotations

__all__ = ["frame_nbytes"]

_HEADER_BYTES = 5
_RECORD_BYTES = 41


def frame_nbytes(count: int) -> int:
    """Logical frame size for telemetry: header plus ``count`` records."""
    return _HEADER_BYTES + count * _RECORD_BYTES
