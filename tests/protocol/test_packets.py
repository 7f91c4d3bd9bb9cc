"""Tests for the NetRPC packet format and size model (Figure 14)."""

import dataclasses

import pytest

from repro.protocol import (
    KV_PAIRS_PER_PACKET,
    KVBlock,
    Packet,
)


def make_packet(n_kv=0, **kwargs):
    kv = KVBlock.from_columns(range(n_kv), [i * 10 for i in range(n_kv)])
    pkt = Packet(gaid=1, src="c0", dst="s0", kv=kv, **kwargs)
    pkt.select_all_slots()
    return pkt


class TestBitmap:
    def test_full_bitmap_widths(self):
        assert make_packet(0).bitmap == 0
        assert make_packet(1).bitmap == 1
        assert make_packet(32).bitmap == 2**32 - 1

    # make_packet puts address i in slot i.
    def test_slot_selection(self):
        pkt = make_packet(4)
        pkt.bitmap = 0b1010
        assert not pkt.kv.selected_contains(0, pkt.bitmap)
        assert pkt.kv.selected_contains(1, pkt.bitmap)
        assert not pkt.kv.selected_contains(2, pkt.bitmap)
        assert pkt.kv.selected_contains(3, pkt.bitmap)

    def test_select_all_slots(self):
        pkt = make_packet(5)
        assert pkt.bitmap == 0b11111
        assert all(pkt.kv.selected_contains(i, pkt.bitmap)
                   for i in range(5))
        assert not pkt.kv.selected_contains(5, pkt.bitmap)


class TestSizeModel:
    def test_linear_full_packet_matches_paper_minimum(self):
        # 32 values with keys elided plus CntFwd fields (the SyncAgtr
        # configuration): the paper's 192-byte packet.
        pkt = make_packet(32, linear_base=0, is_cnf=True)
        assert pkt.size_bytes == 192

    def test_keyed_packet_with_cntfwd_matches_paper_maximum(self):
        # Explicit keys + CntFwd fields: the paper's 320-byte configuration.
        pkt = make_packet(32, is_cnf=True)
        assert pkt.size_bytes == 320

    def test_linear_mode_elides_keys(self):
        keyed = make_packet(16)
        linear = make_packet(16, linear_base=100)
        assert keyed.size_bytes - linear.size_bytes == 16 * 4

    def test_payload_adds_bytes(self):
        small = make_packet(0)
        big = make_packet(0, payload="x", payload_bytes=100)
        assert big.size_bytes - small.size_bytes == 100

    def test_acks_and_grants_add_bytes(self):
        base = make_packet(0)
        with_acks = make_packet(0, acks=(1, 2, 3))
        with_grants = make_packet(0, grants=((1, 2), (3, 4)))
        assert with_acks.size_bytes - base.size_bytes == 12
        assert with_grants.size_bytes - base.size_bytes == 16

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            make_packet(0, payload_bytes=-1)

    def test_too_many_kv_pairs_rejected(self):
        with pytest.raises(ValueError):
            make_packet(KV_PAIRS_PER_PACKET + 1)


class TestCopySemantics:
    def test_copy_duplicates_kv_pairs(self):
        pkt = make_packet(3)
        dup = pkt.copy()
        dup.kv.values[0] = 999
        assert pkt.kv.values[0] == 0

    def test_copy_preserves_fields(self):
        pkt = make_packet(2, is_cnf=True, cnt_index=7)
        dup = pkt.copy()
        assert dup.gaid == pkt.gaid
        assert dup.cnt_index == 7
        assert dup.is_cnf

    @pytest.mark.parametrize("marked", [True, False],
                             ids=["switch-marked", "never-sent"])
    def test_copy_contract(self, marked):
        # What multicast and retransmission rely on: every dataclass
        # field carries over, the kv block is a new one whose value
        # column is detached and whose read-only address and key columns
        # are shared, and no non-field state (size cache, recirculation
        # and processed marks) follows — whether
        # the original had any or not.
        kv = KVBlock.from_columns([8, 9], [5, 6], 0b01, ["k", None])
        pkt = Packet(gaid=3, src="c1", dst="s0", seq=4, flip=1, srrt=2,
                     flow_id=1, kv=kv, is_cnf=True, cnt_index=11,
                     payload=("rpc-data", "M", b"x"), payload_bytes=9,
                     acks=(1, 2), grants=((5, 6),), task_id=7, offset=32,
                     task_total=64, round=9)
        pkt.select_all_slots()
        if marked:
            assert pkt.size_bytes == pkt._size == 105
            pkt._recirculated = True
            pkt.switch_processed = True
        before = dict(vars(pkt))
        dup = pkt.copy()

        names = [f.name for f in dataclasses.fields(Packet)]
        assert set(vars(dup)) == set(names)       # fields, nothing else
        for name in names:
            if name != "kv":
                assert getattr(dup, name) == getattr(pkt, name), name
        assert dup.kv is not pkt.kv
        assert (list(dup.kv.addrs), list(dup.kv.values), dup.kv.mapped_mask,
                dup.kv.keys) == ([8, 9], [5, 6], 0b01, ["k", None])
        assert dup.kv.addrs is pkt.kv.addrs and dup.kv.keys is pkt.kv.keys
        assert dup.kv.values is not pkt.kv.values
        assert dup._size is None and dup.size_bytes == 105
        assert not hasattr(dup, "_recirculated")
        assert not hasattr(dup, "switch_processed")

        dup.dst, dup.is_mcast, dup.ecn_echo, dup.seq = "c4", True, True, 99
        dup.kv.values[0] = 1000
        dup.kv.mapped_mask = 0b11
        dup.switch_processed = True
        assert vars(pkt) == before
        assert pkt.kv.values[0] == 5 and pkt.kv.mapped_mask == 0b01
        assert hasattr(pkt, "switch_processed") is marked

    def test_copy_attaches_a_given_block(self):
        pkt = make_packet(2, task_id=4)
        pkt.switch_processed = True
        kv = KVBlock.from_columns([7], [1], keys=["x"])
        dup = pkt.copy(kv)
        assert dup.kv is kv and pkt.kv is not kv
        assert dup.task_id == 4
        assert not hasattr(dup, "switch_processed")
