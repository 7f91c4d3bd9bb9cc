"""Zero-copy shared-memory shard interconnect.

One :class:`ShmChannelBus` carries every directed shard channel of a
run.  Each channel owns **two fixed-size slots** in a single
``multiprocessing.shared_memory`` block — slot ``round % 2`` — and each
slot holds at most one *frame*: all of one round's boundary deliveries
for that channel, packed by :mod:`repro.shard.codec`.

Why two slots make locking unnecessary
--------------------------------------
The barrier protocol is lockstep: a frame written during round ``r`` is
read exactly once, during round ``r + 1``, and the coordinator only
issues round ``r + 1`` after *every* worker has replied to round ``r``.
So slot ``r % 2`` is written only during round ``r`` and read only
during round ``r + 1`` — with a full pipe barrier between the two —
while the concurrently-written slot of the *next* round is the other
slot.  No slot is ever accessed by two processes at once; no atomics,
no fences, no polling.  Stale slots are detected by the round stamp in
the slot header (stamps are 1-based; fresh shm memory is zero-filled,
so an unwritten slot can never alias round 1).

Writers pack records straight into the shared buffer with
``struct.pack_into`` (no intermediate bytes object, no pickle); readers
decode with ``iter_unpack`` over the same memory.  A frame larger than
the slot capacity is *spilled*: the writer returns it as standalone
frame bytes which travel to the receiver via the coordinator's control
pipe — a deterministic, content-only decision, so spilling can never
change results, only speed.

Lifecycle / crash cleanup: the coordinator creates the block *before*
forking (workers inherit the mapping — no attach, no resource-tracker
races), workers ``close()`` their mapping on exit, and the coordinator
``close()`` + ``unlink()`` in a ``finally``.  A hard-killed run can
leak a segment under ``/dev/shm/repro_shard_*``; ``unlink`` tolerates
the name being gone already, so cleanup is idempotent.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Optional, Sequence

from .codec import (CodecTables, KIND_PACKED, KIND_PICKLED, Message, RECORD,
                    pack_records, packable, unpack_records)

__all__ = ["TRANSPORTS", "DEFAULT_SLOT_BYTES", "ShmChannelBus"]

# ``workers>1`` interconnects: shm is the default, pipe (pickled frames
# over the control pipes) its fallback on hosts without POSIX shm.
TRANSPORTS = ("shm", "pipe")
DEFAULT_SLOT_BYTES = 1 << 18           # 256 KiB per (channel, parity) slot

# stamp (1-based round), payload nbytes, record count, frame kind
_SLOT_HEADER = struct.Struct("<QIIB")
_SLOT_HEADER_BYTES = 24                # header padded to a fixed stride


class ShmChannelBus:
    """Double-slot shared-memory rings, one pair per directed channel."""

    def __init__(self, n_channels: int,
                 slot_bytes: Optional[int] = None):
        # Imported lazily so the pipe transport (and platforms without
        # POSIX shm) never touch the module.
        from multiprocessing import shared_memory
        if slot_bytes is None:
            slot_bytes = DEFAULT_SLOT_BYTES
        if slot_bytes < RECORD.size:
            raise ValueError(f"slot_bytes {slot_bytes} below one record "
                             f"({RECORD.size}B)")
        self.n_channels = n_channels
        self.slot_bytes = slot_bytes
        self._stride = _SLOT_HEADER_BYTES + slot_bytes
        size = max(1, n_channels * 2 * self._stride)
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self.name = self._shm.name

    # -- geometry -------------------------------------------------------
    def _base(self, channel: int, round_no: int) -> int:
        return (channel * 2 + (round_no & 1)) * self._stride

    # -- data path ------------------------------------------------------
    def write_frame(self, channel: int, round_no: int,
                    messages: Sequence[Message],
                    tables: CodecTables) -> bool:
        """Pack one round's channel frame into its slot.  Returns False
        when the frame exceeds the slot capacity — the caller must spill
        it over the control pipe instead."""
        base = self._base(channel, round_no)
        buf = self._shm.buf
        count = len(messages)
        if packable(messages, tables):
            nbytes = count * RECORD.size
            if nbytes > self.slot_bytes:
                return False
            pack_records(messages, tables, buf,
                         base + _SLOT_HEADER_BYTES)
            _SLOT_HEADER.pack_into(buf, base, round_no, nbytes, count,
                                   KIND_PACKED)
            return True
        body = pickle.dumps(list(messages),
                            protocol=pickle.HIGHEST_PROTOCOL)
        if len(body) > self.slot_bytes:
            return False
        start = base + _SLOT_HEADER_BYTES
        buf[start:start + len(body)] = body
        _SLOT_HEADER.pack_into(buf, base, round_no, len(body), count,
                               KIND_PICKLED)
        return True

    def read_frame(self, channel: int, round_no: int,
                   tables: CodecTables) -> Optional[List[Message]]:
        """Decode the frame written for ``round_no``, or None if the
        slot holds no frame for that round (nothing sent, or spilled)."""
        if round_no < 1:               # round 0 never wrote anything;
            return None                # stamp 0 is the zero-fill value
        base = self._base(channel, round_no)
        buf = self._shm.buf
        stamp, nbytes, count, kind = _SLOT_HEADER.unpack_from(buf, base)
        if stamp != round_no:
            return None
        start = base + _SLOT_HEADER_BYTES
        if kind == KIND_PACKED:
            return unpack_records(buf, start, count, tables)
        return pickle.loads(bytes(buf[start:start + nbytes]))

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views alive
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
