"""The NetRPC packet format (paper Figure 14, Appendix B.1).

One packet carries up to 32 key-value pairs plus three groups of header
fields: computation control (bitmap, CntFwd fields), transmission
control (GAID, sequence number, flip bit, SRRT slot, routing flags), and
optional non-INC payload.  The switch takes the operation from the
GAID's admission entry, so Figure 14's op-type, op-parameter and
client-id fields are counted in the header budget but not modelled.

The size model follows the paper's reported range: 192 bytes for a
fully linear packet (keys elided) up to 320 bytes with explicit keys
and CntFwd fields.  The ``payload`` rides along opaquely (collision
keys, plain gRPC fields) and only contributes its byte count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from .kvblock import KVBlock

__all__ = ["KVBlock", "Packet", "KV_PAIRS_PER_PACKET"]

KV_PAIRS_PER_PACKET = 32

# A mapped slot's 4-byte address word: the physical register in the low
# ADDR_BITS (§6.6's chain needs 2 x 32 x 40K < 2**22), its grant's
# generation above them (DESIGN.md §4.1(5)).
ADDR_BITS = 22
ADDR_MASK = (1 << ADDR_BITS) - 1
GENERATION_MASK = (1 << (32 - ADDR_BITS)) - 1

# Header byte budget (matching the paper's 192-320 byte packets):
#   Ethernet + IPv4 + UDP framing               42
#   GAID, seq, flip/SRRT, flags, bitmap, op     14
_BASE_HEADER_BYTES = 56
_BYTES_PER_VALUE = 4
_BYTES_PER_KEY = 4
_CNTFWD_FIELD_BYTES = 8
_GRANT_BYTES = 8
_ACK_SEQ_BYTES = 4

_new = object.__new__


@dataclass
class Packet:
    """A NetRPC wire packet.

    Mutable on purpose: the switch rewrites values in place as the paper's
    pipeline does.  Use :meth:`copy` before retransmitting.  A switch
    multicast is one packet per fan-out group: every directly attached
    member receives the same object, its value column frozen to a tuple,
    and only reads it (:meth:`marked` puts a link's ECN mark on a copy).
    """

    gaid: int
    src: str                       # sending host name
    dst: str                       # destination host name
    seq: int = 0
    flip: int = 0
    srrt: int = -1                 # switch bitmap slot; -1 = no reliable state
    flow_id: int = 0               # sender-local flow (worker thread) index

    # --- computation control ------------------------------------------
    bitmap: int = 0
    is_cnf: bool = False
    cnt_index: int = 0
    is_clr: bool = False
    is_of: bool = False
    # The slots whose Map.addTo the switch refused (DESIGN.md §4.1(1));
    # sized into the header budget's op fields, which a result does not
    # need.
    of_mask: int = 0
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

    # --- data -----------------------------------------------------------
    # Stored columnar: one KVBlock, built with KVBlock.from_columns.
    kv: KVBlock = field(default_factory=KVBlock)
    linear_base: Optional[int] = None  # linear addressing: keys elided
    payload: Any = None
    payload_bytes: int = 0

    # --- piggybacked transport/control info -----------------------------
    acks: Tuple[int, ...] = ()
    grants: Tuple[Tuple[int, int], ...] = ()   # (logical, address word)
    revokes: Tuple[int, ...] = ()              # logical addrs being evicted
    ack_flow: int = 0                          # flow the acks refer to

    # --- task framing (4 bytes each, folded into the header budget) ------
    task_id: int = -1
    offset: int = 0                # first kv's position within the task
    task_total: int = 0            # total kv pairs in the task (0 = unknown)
    round: int = 0                 # application round (RPC call ordinal)
    sent_at: float = 0.0

    # Cached wire size (plain class attribute, not a dataclass field).
    # Every size-affecting field is settled before a packet first hits a
    # link, so the first ``size_bytes`` read freezes the value; ``copy``
    # drops the cache (only the switch's multicast fan-out and ``marked``,
    # which change no size-affecting field, hand it on to their copies).
    _size = None

    def __post_init__(self):
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

    def select_all_slots(self) -> None:
        self.bitmap = (1 << len(self.kv.addrs)) - 1

    def copy(self, kv: Optional[KVBlock] = None) -> "Packet":
        """A new packet with this one's header.

        Carries ``kv`` when given, else a copy of this packet's block
        (which shares its read-only columns).  This is the one fast way
        to make a packet: multicast and retransmission copy the packet
        in hand, and the agents' hot send paths copy a header prototype
        built once through the constructor, then store the fields that
        differ.
        """
        # Hand-rolled (no dataclasses.replace): replace() re-runs the
        # 32-field __init__.  The instance dict is copied once and handed
        # over; non-field state deliberately does not carry over,
        # matching replace() semantics.
        dup = _new(Packet)
        state = self.__dict__.copy()
        if kv is None:
            # KVBlock.copy inlined — one per multicast receiver and per
            # retransmission: a value slice, the read-only columns shared.
            own = self.kv
            kv = _new(KVBlock)
            kv.addrs = own.addrs
            kv.values = own.values[:]
            kv.mapped_mask = own.mapped_mask
            kv.keys = own.keys
        state["kv"] = kv
        # Instance state that is not a dataclass field: the size cache
        # and the switch's recirculation and processed marks.  First
        # transmissions put the pending-table entry itself on the wire,
        # so the processed mark lands on the sender's own object; a
        # retransmit copy must not inherit that first trip.
        pop = state.pop
        pop("_size", None)
        pop("_recirculated", None)
        pop("switch_processed", None)
        dup.__dict__ = state
        return dup

    def marked(self) -> "Packet":
        """This packet with its link-level ECN mark set (``Link.send``).

        A multicast group packet (value column frozen to a tuple) is held
        by every member of its group, so the mark goes on a private copy
        with a list column and the same wire size; any other packet is
        marked in place.
        """
        values = self.kv.values
        if type(values) is not tuple:
            self.ecn = True
            return self
        dup = self.copy()
        dup.kv.values = list(values)
        dup._size = self._size
        dup.ecn = True
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ACK" if self.is_ack else ("SA" if self.is_sa else "DATA")
        return (f"<Packet {kind} gaid={self.gaid} seq={self.seq} "
                f"{self.src}->{self.dst} kv={len(self.kv)} "
                f"{self.size_bytes}B>")
