"""The NetRPC packet format (paper Figure 14, Appendix B.1).

One packet carries up to 32 key-value pairs plus three groups of header
fields: computation control (primitive selection, op type, bitmap,
CntFwd counter index), transmission control (GAID, sequence number,
flip bit, SRRT slot, routing flags), and optional non-INC payload.

The size model follows the paper's reported range: 192 bytes for a
fully linear packet (keys elided) up to 320 bytes with explicit keys
and CntFwd fields.  The ``payload`` rides along opaquely (collision
keys, plain gRPC fields) and only contributes its byte count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from .kvblock import KVBlock, KVSlot
from .ops import StreamOp

__all__ = ["KVPair", "KVBlock", "KVSlot", "Packet", "KV_PAIRS_PER_PACKET",
           "full_bitmap"]

KV_PAIRS_PER_PACKET = 32

# Header byte budget (matching the paper's 192-320 byte packets):
#   Ethernet + IPv4 + UDP framing               42
#   GAID, seq, flip/SRRT, flags, bitmap, op     14
_BASE_HEADER_BYTES = 56
_BYTES_PER_VALUE = 4
_BYTES_PER_KEY = 4
_CNTFWD_FIELD_BYTES = 8
_GRANT_BYTES = 8
_ACK_SEQ_BYTES = 4

_packet_ids = itertools.count()

# Instance state that is not a dataclass field and that ``Packet.copy``
# does not carry over: the size cache and the switch's recirculation and
# processed marks.  First transmissions put the pending-table entry
# itself on the wire, so the processed mark lands on the sender's own
# object; a retransmit copy must not inherit that first trip.
_NON_FIELD_STATE = ("_size", "_recirculated", "switch_processed")


def full_bitmap(n: int = KV_PAIRS_PER_PACKET) -> int:
    """Bitmap selecting the first ``n`` kv slots for processing."""
    if not 0 <= n <= KV_PAIRS_PER_PACKET:
        raise ValueError(f"bitmap width must be in [0, {KV_PAIRS_PER_PACKET}]")
    return (1 << n) - 1


@dataclass(slots=True)
class KVPair:
    """One <key/index, value> tuple in the packet's data section.

    ``addr`` is a *physical* switch address when the client already holds
    a mapping grant, otherwise the 32-bit logical address (the ``mapped``
    flag distinguishes them).  ``key`` keeps the original application key
    so the server agent can process fallback pairs without a reverse map.
    """

    addr: int
    value: int
    mapped: bool = False
    key: Any = None

    def copy(self) -> "KVPair":
        return KVPair(self.addr, self.value, self.mapped, self.key)


@dataclass
class Packet:
    """A NetRPC wire packet.

    Mutable on purpose: the switch rewrites values in place as the paper's
    pipeline does.  Use :meth:`copy` before multicasting or retransmitting
    so receivers do not alias each other's data.
    """

    gaid: int
    src: str                       # sending host name
    dst: str                       # destination host name
    seq: int = 0
    flip: int = 0
    srrt: int = -1                 # switch bitmap slot; -1 = no reliable state
    flow_id: int = 0               # sender-local flow (worker thread) index

    # --- computation control ------------------------------------------
    op_type: StreamOp = StreamOp.NOP
    op_para: int = 0
    bitmap: int = 0
    is_cnf: bool = False
    cnt_index: int = 0
    is_clr: bool = False
    is_of: bool = False
    # Shadow clear policy: signed offset from each kv address to its
    # mirror register, cleared while this packet's data accumulates in
    # the active region (§5.2.2, "shadow").  0 disables.
    shadow_offset: int = 0

    # --- routing / transmission control --------------------------------
    is_cross: bool = False         # must reach the server agent
    is_sa: bool = False            # originates from the server agent
    is_mcast: bool = False
    is_ack: bool = False
    ecn: bool = False              # link-level mark on THIS packet
    # Switch-recorded data-path congestion echoed on return packets (the
    # paper's "ECN written to the INC map", §5.1): tells the *sender's*
    # flows to slow down, independent of reverse-path congestion.
    ecn_echo: bool = False
    client_id: int = 0

    # --- data -----------------------------------------------------------
    # Stored columnar (a KVBlock); list-of-KVPair arguments are converted
    # in __post_init__ so row-oriented construction keeps working.
    kv: KVBlock = field(default_factory=KVBlock)
    linear_base: Optional[int] = None  # linear addressing: keys elided
    payload: Any = None
    payload_bytes: int = 0

    # --- piggybacked transport/control info -----------------------------
    acks: Tuple[int, ...] = ()
    grants: Tuple[Tuple[int, int], ...] = ()   # (logical, physical) pairs
    revokes: Tuple[int, ...] = ()              # logical addrs being evicted
    ack_flow: int = 0                          # flow the acks refer to

    # --- task framing (4 bytes each, folded into the header budget) ------
    task_id: int = -1
    offset: int = 0                # first kv's position within the task
    task_total: int = 0            # total kv pairs in the task (0 = unknown)
    round: int = 0                 # application round (RPC call ordinal)
    uid: int = field(default_factory=_packet_ids.__next__)
    sent_at: float = 0.0
    is_retransmit: bool = False

    # Cached wire size (plain class attribute, not a dataclass field).
    # Every size-affecting field is settled before a packet first hits a
    # link, so the first ``size_bytes`` read freezes the value; ``copy``
    # drops the cache (only the switch's multicast fan-out, which changes
    # no size-affecting field, hands it on to its copies).
    _size = None

    def __post_init__(self):
        if not isinstance(self.kv, KVBlock):
            self.kv = KVBlock.from_pairs(self.kv)
        if len(self.kv.addrs) > KV_PAIRS_PER_PACKET:
            raise ValueError(
                f"a packet carries at most {KV_PAIRS_PER_PACKET} kv pairs, "
                f"got {len(self.kv.addrs)}")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """On-the-wire size under the paper's packing optimisations."""
        size = self._size
        if size is not None:
            return size
        nkv = len(self.kv.addrs)
        size = _BASE_HEADER_BYTES + nkv * _BYTES_PER_VALUE
        if self.linear_base is None:
            size += nkv * _BYTES_PER_KEY
        if self.is_cnf:
            size += _CNTFWD_FIELD_BYTES
        size += len(self.grants) * _GRANT_BYTES
        size += len(self.acks) * _ACK_SEQ_BYTES
        size += len(self.revokes) * _ACK_SEQ_BYTES
        size += self.payload_bytes
        self._size = size
        return size

    @property
    def chunk_id(self) -> Tuple[int, int]:
        """Identifies the logical data chunk across all senders.

        Used to match CntFwd result packets back to each client's pending
        sequence number.
        """
        return (self.task_id, self.offset)

    def slot_selected(self, index: int) -> bool:
        """Whether kv slot ``index`` is selected by the bitmap."""
        return bool(self.bitmap >> index & 1)

    def select_all_slots(self) -> None:
        self.bitmap = (1 << len(self.kv.addrs)) - 1

    def copy(self) -> "Packet":
        """Deep-enough copy for multicast/retransmission (kv duplicated)."""
        # Hand-rolled (no dataclasses.replace): copy() sits on the
        # retransmit and multicast hot paths and replace() re-runs the
        # 30-field __init__.  The instance dict is copied once and handed
        # over; non-field state deliberately does not carry over,
        # matching replace() semantics.
        dup = object.__new__(Packet)
        state = self.__dict__.copy()
        state["kv"] = self.kv.copy()
        state["uid"] = next(_packet_ids)
        for key in _NON_FIELD_STATE:
            if key in state:
                del state[key]
        dup.__dict__ = state
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ACK" if self.is_ack else ("SA" if self.is_sa else "DATA")
        return (f"<Packet {kind} gaid={self.gaid} seq={self.seq} "
                f"{self.src}->{self.dst} kv={len(self.kv)} "
                f"{self.size_bytes}B>")
