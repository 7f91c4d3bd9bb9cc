"""Tests for the RIP pipeline logic (paper Figure 15)."""

import pytest

from repro.protocol import (
    INT32_MAX,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    KVBlock,
    Packet,
    RIPProgram,
    StreamOp,
)
from repro.switchsim import (
    Action,
    AppEntry,
    FlowStateTable,
    RegisterFile,
    RIPPipeline,
)


def make_pipeline():
    regs = RegisterFile(segments=32, registers_per_segment=1000)
    flows = FlowStateTable(w_max=8)
    return RIPPipeline(regs, flows), regs, flows


def make_entry(program, clients=("c0", "c1"), server="s0"):
    return AppEntry(gaid=1, program=program, server=server, clients=clients)


def data_packet(kv_addrs_values, seq=0, srrt=-1, **kwargs):
    kv = KVBlock.from_columns([a for a, _ in kv_addrs_values],
                              [v for _, v in kv_addrs_values],
                              mapped_mask=-1)
    pkt = Packet(gaid=1, src="c0", dst="s0", seq=seq, srrt=srrt,
                 flip=(seq // 8) % 2, kv=kv, **kwargs)
    pkt.select_all_slots()
    return pkt


AGGR = RIPProgram(app_name="aggr", get_field="r.t", add_to_field="q.t")


class TestBypasses:
    def test_ack_passes_through(self):
        pipe, _, _ = make_pipeline()
        pkt = Packet(gaid=1, src="s0", dst="c0", is_ack=True)
        verdict = pipe.process(pkt, make_entry(AGGR), now=0.0)
        assert verdict.action is Action.FORWARD and verdict.dst == "c0"

    def test_overflow_marked_packet_bypasses_to_server(self):
        pipe, regs, _ = make_pipeline()
        pkt = data_packet([(0, 5)], is_of=True)
        pkt.dst = "anywhere"
        verdict = pipe.process(pkt, make_entry(AGGR), now=0.0)
        assert verdict.action is Action.FORWARD and verdict.dst == "s0"
        assert regs.read(0) == 0  # untouched

    def test_cross_packet_bypasses_to_server(self):
        pipe, regs, _ = make_pipeline()
        pkt = data_packet([(0, 5)], is_cross=True)
        verdict = pipe.process(pkt, make_entry(AGGR), now=0.0)
        assert verdict.action is Action.FORWARD and verdict.dst == "s0"
        assert regs.read(0) == 0

    def test_entry_touched_for_timeout_polling(self):
        pipe, _, _ = make_pipeline()
        entry = make_entry(AGGR)
        pipe.process(data_packet([(0, 5)]), entry, now=3.5)
        assert entry.last_seen == 3.5


class TestMapPrimitives:
    def test_add_to_accumulates(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(AGGR)
        pipe.process(data_packet([(0, 5), (1, 7)]), entry, 0.0)
        pipe.process(data_packet([(0, 3)]), entry, 0.0)
        assert regs.read(0) == 8
        assert regs.read(1) == 7

    def test_get_reads_back_into_packet(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(AGGR)
        regs.add(0, 100)
        pkt = data_packet([(0, 5)])
        pipe.process(pkt, entry, 0.0)
        # addTo ran first (100 + 5), then get read the result back.
        assert pkt.kv.values[0] == 105

    def test_get_only_program_does_not_write(self):
        prog = RIPProgram(app_name="q", get_field="r.kvs",
                          cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        pipe, regs, _ = make_pipeline()
        regs.add(4, 50)
        pkt = data_packet([(4, 999)])
        verdict = pipe.process(pkt, make_entry(prog), 0.0)
        assert regs.read(4) == 50
        assert pkt.kv.values[0] == 50
        assert verdict.action is Action.BOUNCE and verdict.dst == "c0"

    def test_unmapped_pairs_skipped(self):
        pipe, regs, _ = make_pipeline()
        pkt = data_packet([(0, 5)])
        pkt.kv.mapped_mask &= ~1
        pipe.process(pkt, make_entry(AGGR), 0.0)
        assert regs.read(0) == 0

    def test_bitmap_deselects_slots(self):
        pipe, regs, _ = make_pipeline()
        pkt = data_packet([(0, 5), (1, 7)])
        pkt.bitmap = 0b01  # only slot 0
        pipe.process(pkt, make_entry(AGGR), 0.0)
        assert regs.read(0) == 5
        assert regs.read(1) == 0

    def test_overflow_sets_flag_and_sentinel(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(AGGR)
        regs.add(0, INT32_MAX - 1)
        pkt = data_packet([(0, 10)])
        pipe.process(pkt, entry, 0.0)
        assert pkt.is_of
        assert pkt.kv.values[0] == INT32_MAX
        # The register keeps the recoverable pre-overflow value.
        assert regs.read_raw(0) == INT32_MAX - 1

    def test_get_of_sticky_register_marks_overflow(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(AGGR)
        regs.add(0, INT32_MAX)
        regs.add(0, 1)  # sticky
        pkt = data_packet([(0, 0)])
        pkt.bitmap = 0  # no processing of the pair itself
        prog_get = RIPProgram(app_name="g", get_field="x.y")
        pkt2 = data_packet([(0, 0)])
        pipe.process(pkt2, make_entry(prog_get), 0.0)
        assert pkt2.is_of and pkt2.kv.values[0] == INT32_MAX


class TestStreamModify:
    def test_modify_applies_to_stream(self):
        prog = RIPProgram(app_name="m", modify_op=StreamOp.ADD,
                          modify_para=10)
        pipe, _, _ = make_pipeline()
        pkt = data_packet([(0, 1), (1, 2)])
        pipe.process(pkt, make_entry(prog), 0.0)
        assert list(pkt.kv.values) == [11, 12]

    def test_modify_does_not_touch_map(self):
        prog = RIPProgram(app_name="m", modify_op=StreamOp.ASSIGN,
                          modify_para=1)
        pipe, regs, _ = make_pipeline()
        pipe.process(data_packet([(0, 123)]), make_entry(prog), 0.0)
        assert regs.read(0) == 0

    def test_modify_runs_before_add_to(self):
        prog = RIPProgram(app_name="m", add_to_field="q.t",
                          modify_op=StreamOp.SHIFTL, modify_para=1)
        pipe, regs, _ = make_pipeline()
        pipe.process(data_packet([(0, 3)]), make_entry(prog), 0.0)
        assert regs.read(0) == 6


class TestRetransmissionIdempotence:
    def test_retransmitted_packet_skips_add(self):
        pipe, regs, flows = make_pipeline()
        slot = flows.allocate()
        entry = make_entry(AGGR)
        pipe.process(data_packet([(0, 5)], seq=0, srrt=slot), entry, 0.0)
        retx = data_packet([(0, 5)], seq=0, srrt=slot)
        verdict = pipe.process(retx, entry, 0.0)
        assert verdict.retransmission
        assert regs.read(0) == 5  # not doubled

    def test_retransmitted_packet_still_gets(self):
        pipe, regs, flows = make_pipeline()
        slot = flows.allocate()
        entry = make_entry(AGGR)
        pipe.process(data_packet([(0, 5)], seq=0, srrt=slot), entry, 0.0)
        retx = data_packet([(0, 0)], seq=0, srrt=slot)
        retx.kv.values[0] = 0
        pipe.process(retx, entry, 0.0)
        assert retx.kv.values[0] == 5  # read the aggregate

    def test_new_seq_same_slot_processes(self):
        pipe, regs, flows = make_pipeline()
        slot = flows.allocate()
        entry = make_entry(AGGR)
        pipe.process(data_packet([(0, 5)], seq=0, srrt=slot), entry, 0.0)
        pipe.process(data_packet([(0, 5)], seq=1, srrt=slot), entry, 0.0)
        assert regs.read(0) == 10


class TestCntFwd:
    VOTE = RIPProgram(
        app_name="vote", get_field="v.kvs", add_to_field="v.kvs",
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2))

    def test_below_threshold_drops(self):
        pipe, _, _ = make_pipeline()
        pkt = data_packet([(0, 5)], is_cnf=True, cnt_index=100)
        verdict = pipe.process(pkt, make_entry(self.VOTE), 0.0)
        assert verdict.action is Action.DROP

    def test_threshold_reached_multicasts(self):
        pipe, _, flows = make_pipeline()
        entry = make_entry(self.VOTE)
        s0, s1 = flows.allocate(), flows.allocate()
        pipe.process(data_packet([(0, 5)], seq=0, srrt=s0, is_cnf=True,
                                 cnt_index=100), entry, 0.0)
        pkt = data_packet([(0, 7)], seq=0, srrt=s1, is_cnf=True,
                          cnt_index=100)
        verdict = pipe.process(pkt, entry, 0.0)
        assert verdict.action is Action.MULTICAST
        assert verdict.group == ("c0", "c1")
        assert pkt.kv.values[0] == 12  # aggregated result rides along

    def test_counter_rearms_after_round(self):
        pipe, regs, flows = make_pipeline()
        entry = make_entry(self.VOTE)
        slots = [flows.allocate() for _ in range(2)]
        for seq in range(2):  # two complete rounds
            for s in slots:
                pipe.process(data_packet([(0, 1)], seq=seq, srrt=s,
                                         is_cnf=True, cnt_index=100),
                             entry, 0.0)
        assert regs.read_raw(100) == 0

    def test_retransmission_does_not_double_count(self):
        pipe, regs, flows = make_pipeline()
        entry = make_entry(self.VOTE)
        slot = flows.allocate()
        pipe.process(data_packet([(0, 1)], seq=0, srrt=slot, is_cnf=True,
                                 cnt_index=100), entry, 0.0)
        verdict = pipe.process(data_packet([(0, 1)], seq=0, srrt=slot,
                                           is_cnf=True, cnt_index=100),
                               entry, 0.0)
        # Same sender retransmitting must not complete the round alone.
        assert verdict.action is Action.DROP
        assert regs.read_raw(100) == 1

    def test_lost_result_recovered_by_retransmission_bounce(self):
        pipe, regs, flows = make_pipeline()
        entry = make_entry(self.VOTE)
        s0, s1 = flows.allocate(), flows.allocate()
        pipe.process(data_packet([(0, 5)], seq=0, srrt=s0, is_cnf=True,
                                 cnt_index=100), entry, 0.0)
        pipe.process(data_packet([(0, 7)], seq=0, srrt=s1, is_cnf=True,
                                 cnt_index=100), entry, 0.0)
        # Round complete; c0 lost the multicast and retransmits.
        retx = data_packet([(0, 5)], seq=0, srrt=s0, is_cnf=True,
                           cnt_index=100)
        verdict = pipe.process(retx, entry, 0.0)
        assert verdict.action is Action.BOUNCE and verdict.dst == "c0"
        assert retx.kv.values[0] == 12

    def test_test_and_set_grants_first_only(self):
        lock = RIPProgram(app_name="lock",
                          cntfwd=CntFwdSpec(target=ForwardTarget.SRC,
                                            threshold=1))
        pipe, regs, _ = make_pipeline()
        entry = make_entry(lock)
        first = data_packet([(50, 1)], seq=0, is_cnf=True, cnt_index=50)
        second = data_packet([(50, 1)], seq=1, is_cnf=True, cnt_index=50)
        v1 = pipe.process(first, entry, 0.0)
        v2 = pipe.process(second, entry, 0.0)
        assert v1.action is Action.BOUNCE   # granted
        assert v2.action is Action.DROP     # blocked
        # test&set counters persist until an explicit clear (release).
        assert regs.read_raw(50) == 2

    def test_threshold_zero_forwards_unconditionally(self):
        prog = RIPProgram(app_name="mon", add_to_field="m.kvs",
                          cntfwd=CntFwdSpec(target=ForwardTarget.SERVER,
                                            threshold=0))
        pipe, _, _ = make_pipeline()
        verdict = pipe.process(data_packet([(0, 1)]), make_entry(prog), 0.0)
        assert verdict.action is Action.FORWARD and verdict.dst == "s0"


class TestReturnPath:
    COPY = RIPProgram(app_name="aggr", get_field="r.t", add_to_field="q.t",
                      clear=ClearPolicy.COPY)

    def test_server_return_clears_registers(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(self.COPY)
        regs.add(0, 42)
        ret = data_packet([(0, 42)], is_clr=True)
        ret.is_sa = True
        ret.dst = "c0"
        verdict = pipe.process(ret, entry, 0.0)
        assert regs.read(0) == 0
        assert verdict.action is Action.FORWARD

    def test_return_clear_also_resets_counter(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(self.COPY)
        regs.add(100, 1)
        ret = data_packet([(0, 0)], is_clr=True, is_cnf=True, cnt_index=100)
        ret.is_sa = True
        pipe.process(ret, entry, 0.0)
        assert regs.read_raw(100) == 0

    def test_multicast_return(self):
        pipe, _, _ = make_pipeline()
        ret = data_packet([(0, 0)])
        ret.is_sa = True
        ret.is_mcast = True
        verdict = pipe.process(ret, make_entry(self.COPY), 0.0)
        assert verdict.action is Action.MULTICAST
        assert verdict.group == ("c0", "c1")

    def test_retransmitted_return_does_not_reclear(self):
        pipe, regs, flows = make_pipeline()
        entry = make_entry(self.COPY)
        slot = flows.allocate()
        regs.add(0, 42)
        ret = data_packet([(0, 42)], seq=0, srrt=slot, is_clr=True)
        ret.is_sa = True
        pipe.process(ret, entry, 0.0)
        # New accumulation begins...
        regs.add(0, 7)
        # ...then a retransmitted clear arrives; it must not destroy it.
        retx = data_packet([(0, 42)], seq=0, srrt=slot, is_clr=True)
        retx.is_sa = True
        pipe.process(retx, entry, 0.0)
        assert regs.read(0) == 7


class TestShadowClear:
    SHADOW = RIPProgram(app_name="aggr", get_field="r.t", add_to_field="q.t",
                        clear=ClearPolicy.SHADOW)

    def test_shadow_clears_mirror_and_recirculates(self):
        pipe, regs, _ = make_pipeline()
        entry = make_entry(self.SHADOW)
        regs.add(32, 99)  # stale value in the mirror region
        pkt = data_packet([(0, 5)], shadow_offset=32)
        verdict = pipe.process(pkt, entry, 0.0)
        assert regs.read(0) == 5       # active region accumulated
        assert regs.read(32) == 0      # mirror cleared
        assert verdict.recirculate

    def test_shadow_without_offset_does_not_recirculate(self):
        pipe, _, _ = make_pipeline()
        verdict = pipe.process(data_packet([(0, 5)]),
                               make_entry(self.SHADOW), 0.0)
        assert not verdict.recirculate
