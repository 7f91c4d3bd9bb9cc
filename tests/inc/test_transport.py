"""Tests for AIMD congestion control and the reliable flow sender."""

import pytest

from repro.inc import AIMDController, ReliableFlow
from repro.netsim import Host, Link, Node, Simulator, scaled
from repro.protocol import KVBlock, Packet, RetryMode


CAL = scaled(initial_cwnd=4, w_max=16, retransmit_timeout_s=1e-3)


class TestAIMD:
    def test_initial_window(self):
        cc = AIMDController(CAL)
        assert cc.cwnd == CAL.initial_cwnd

    def test_clean_acks_grow_window(self):
        cc = AIMDController(CAL)
        for _ in range(50):
            cc.on_ack(ecn=False, now=0.0)
        assert cc.cwnd > CAL.initial_cwnd

    def test_window_capped_at_w_max(self):
        cc = AIMDController(CAL)
        for _ in range(10_000):
            cc.on_ack(ecn=False, now=0.0)
        assert cc.cwnd == CAL.w_max

    def test_ecn_halves_window(self):
        cc = AIMDController(CAL)
        for _ in range(2000):
            cc.on_ack(ecn=False, now=0.0)
        before = cc.cwnd
        cc.on_ack(ecn=True, now=100.0)
        assert cc.cwnd <= max(CAL.min_cwnd, int(before * CAL.aimd_decrease))

    def test_at_most_one_decrease_per_rtt(self):
        cc = AIMDController(CAL)
        cc.observe_rtt(1.0)
        for _ in range(2000):
            cc.on_ack(ecn=False, now=0.0)
        cc.on_ack(ecn=True, now=10.0)
        after_first = cc.cwnd
        cc.on_ack(ecn=True, now=10.1)  # within the same RTT
        assert cc.cwnd == after_first

    def test_timeout_does_not_touch_window(self):
        # §5.1: timeouts do not indicate congestion under CntFwd (the
        # switch may simply be waiting for the slowest sender), so only
        # ECN modulates the window.
        cc = AIMDController(CAL)
        for _ in range(2000):
            cc.on_ack(ecn=False, now=0.0)
        before = cc.cwnd
        cc.on_timeout(now=1.0)
        cc.on_fast_loss(now=2.0)
        assert cc.cwnd == before
        assert cc.stats["timeouts"] == 1

    def test_disabled_controller_stays_at_w_max(self):
        cc = AIMDController(CAL, enabled=False)
        assert cc.cwnd == CAL.w_max
        cc.on_ack(ecn=True, now=1.0)
        cc.on_timeout(now=2.0)
        assert cc.cwnd == CAL.w_max

    def test_rtt_ewma(self):
        cc = AIMDController(CAL)
        cc.observe_rtt(1.0)
        assert cc.rtt_estimate == 1.0
        cc.observe_rtt(2.0)
        assert 1.0 < cc.rtt_estimate < 2.0


class _Collector(Node):
    """Receives packets; can be told to drop or ack selectively."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_flow(sim, retry_mode=RetryMode.PERSIST, cc_enabled=True):
    host = Host(sim, "h0")
    sink = _Collector(sim)
    link = Link(sim, host, sink, bandwidth_bps=100e9, delay_s=1e-6)
    host.attach_egress(link)
    flow = ReliableFlow(sim, host, "sink", srrt=0, cal=CAL,
                        cc_enabled=cc_enabled, retry_mode=retry_mode)
    return flow, sink


def make_packet(task_id=1, offset=0):
    pkt = Packet(gaid=1, src="h0", dst="server",
                 kv=KVBlock.from_columns([0], [1]), task_id=task_id,
                 offset=offset)
    pkt.select_all_slots()
    return pkt


class TestReliableFlow:
    def test_sequences_assigned_in_order(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        for i in range(3):
            flow.enqueue(make_packet(offset=i * 32))
        sim.run(until=0.001)
        assert [p.seq for p in sink.received] == [0, 1, 2]

    def test_flip_bit_follows_window(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        pkt = make_packet()
        flow.enqueue(pkt)
        assert pkt.flip == 0
        # seq w_max would have flip 1 (checked via the formula).
        assert (CAL.w_max // CAL.w_max) % 2 == 1

    def test_window_limits_in_flight(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        for i in range(20):
            flow.enqueue(make_packet(offset=i * 32))
        sim.run(until=1e-5)
        assert flow.stats["sent"] == len(sink.received) == CAL.initial_cwnd
        # The other packets wait until ACKs open the window.
        while len(sink.received) < 20:
            for pkt in sink.received:
                flow.ack(pkt.seq)
            sim.run(until=sim.now + 1e-5)
        assert flow.stats["sent"] == 20 and flow.stats["retransmits"] == 0

    def test_ack_opens_window(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        for i in range(8):
            flow.enqueue(make_packet(offset=i * 32))
        sim.run(until=1e-5)
        flow.ack(0)
        flow.ack(1)
        sim.run(until=2e-5)
        assert len(sink.received) >= 6

    def test_retransmits_on_timeout(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        flow.enqueue(make_packet())
        sim.run(until=10 * CAL.retransmit_timeout_s)
        assert flow.stats["retransmits"] >= 1
        assert len(sink.received) >= 2
        assert sink.received[1] is not sink.received[0]
        assert sink.received[1].seq == sink.received[0].seq

    def test_retransmission_preserves_seq_and_flip(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        flow.enqueue(make_packet())
        sim.run(until=5 * CAL.retransmit_timeout_s)
        first, second = sink.received[0], sink.received[1]
        assert first.seq == second.seq
        assert first.flip == second.flip

    def test_ack_stops_retransmission(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        flow.enqueue(make_packet())
        sim.run(until=1e-5)
        flow.ack(0)
        sim.run(until=20 * CAL.retransmit_timeout_s)
        sim.run()           # runs dry: nothing is left to retransmit
        assert flow.stats["retransmits"] == 0

    def test_duplicate_ack_ignored(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        flow.enqueue(make_packet())
        sim.run(until=1e-5)
        assert flow.ack(0) is not None
        assert flow.ack(0) is None

    def test_ack_by_chunk_id(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        flow.enqueue(make_packet(task_id=9, offset=64))
        sim.run(until=1e-5)
        original = flow.ack_chunk((9, 64))
        assert original is not None and original.offset == 64

    def test_fresh_retry_sends_new_sequence(self):
        sim = Simulator()
        flow, sink = make_flow(sim, retry_mode=RetryMode.FRESH)
        flow.enqueue(make_packet())
        sim.run(until=10 * CAL.retransmit_timeout_s)
        assert flow.stats["fresh_retries"] >= 1
        seqs = {p.seq for p in sink.received}
        assert len(seqs) >= 2  # new attempts, not same-seq retransmits

    def test_selective_ack_out_of_order(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        for i in range(4):
            flow.enqueue(make_packet(offset=i * 32))
        sim.run(until=1e-5)
        assert flow.ack(2) is not None and flow.ack(3) is not None
        assert flow.stats["acked"] == 2
        # 0 and 1 are still pending: their ACKs settle them.
        assert flow.ack(0) is not None and flow.ack(1) is not None
        assert flow.stats["sent"] == flow.stats["acked"] == 4
        sim.run()           # returns: nothing is left to retransmit
        assert flow.stats["retransmits"] == 0

    def test_gives_up_after_max_attempts(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        gave_up = []
        flow.on_give_up = gave_up.append
        flow.MAX_ATTEMPTS = 3
        flow.enqueue(make_packet())
        sim.run(until=2.0)
        assert len(gave_up) == 1
        assert flow.stats["abandoned"] == 1
        assert flow.ack(0) is None      # no longer pending
        sent = len(sink.received)
        sim.run()           # returns: the flow keeps no RTO timer
        assert len(sink.received) == sent


class TestFastRetransmit:
    """The selective-ACK loss inference (_fast_retransmit_check):
    an ACK REORDER_GAP past a window head older than one RTT heals the
    head without waiting for the RTO."""

    @staticmethod
    def _deliver_past_gap(sim, flow, sink):
        """Drive the flow until seq REORDER_GAP is on the wire, acking
        everything in between except the head (seq 0)."""
        gap = ReliableFlow.REORDER_GAP
        for i in range(gap + 4):
            flow.enqueue(make_packet(offset=i * 32))
        acked = set()
        for _ in range(100):
            sim.run(until=sim.now + 2e-6)
            if any(p.seq == gap for p in sink.received):
                break
            for pkt in list(sink.received):
                if 0 < pkt.seq < gap and pkt.seq not in acked:
                    acked.add(pkt.seq)
                    flow.ack(pkt.seq)
        assert any(p.seq == gap for p in sink.received)

    def test_duplicate_ack_gap_triggers_fast_retransmit(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        self._deliver_past_gap(sim, flow, sink)
        assert flow.stats.get("fast_retransmits", 0) == 0
        # Age the head well past the RTT estimate, then deliver the
        # out-of-order ACK that reveals the hole at the window head.
        sim.run(until=sim.now + 5e-6)
        assert flow.ack(ReliableFlow.REORDER_GAP) is not None
        assert flow.stats["fast_retransmits"] == 1
        sim.run(until=sim.now + 1e-5)
        head_copies = [p for p in sink.received if p.seq == 0]
        assert len(head_copies) == 2
        assert head_copies[1] is not head_copies[0]
        assert head_copies[1].flip == head_copies[0].flip

    def test_duplicate_ack_does_not_fire_twice(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        self._deliver_past_gap(sim, flow, sink)
        sim.run(until=sim.now + 5e-6)
        gap = ReliableFlow.REORDER_GAP
        assert flow.ack(gap) is not None
        assert flow.stats["fast_retransmits"] == 1
        # The second ACK for the same seq is a pure duplicate: it must
        # return None and must not re-trigger the fast retransmit (the
        # pending entry is gone, so the check is never reached).
        assert flow.ack(gap) is None
        assert flow.stats["fast_retransmits"] == 1
        sim.run(until=sim.now + 1e-5)
        assert len([p for p in sink.received if p.seq == 0]) == 2

    def test_gap_below_threshold_does_not_trigger(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        for i in range(6):
            flow.enqueue(make_packet(offset=i * 32))
        sim.run(until=sim.now + 2e-5)
        for seq in (1, 2, 3):
            flow.ack(seq)
        sim.run(until=sim.now + 2e-5)
        flow.ack(5)   # gap 5 < REORDER_GAP
        assert flow.stats.get("fast_retransmits", 0) == 0

    def test_young_head_does_not_trigger(self):
        sim = Simulator()
        flow, sink = make_flow(sim)
        self._deliver_past_gap(sim, flow, sink)
        # Inflate the RTT estimate so the head looks younger than one
        # RTT: reordering, not loss, stays the presumed explanation.
        flow.cc.observe_rtt(1.0)
        flow.ack(ReliableFlow.REORDER_GAP)
        assert flow.stats.get("fast_retransmits", 0) == 0
