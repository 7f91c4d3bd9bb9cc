"""Unit tests for links, queues, loss models, and hosts."""

import pytest

from repro.netsim import (
    ETHERNET_OVERHEAD_BYTES,
    BurstLoss,
    Host,
    Link,
    NoLoss,
    Node,
    RandomLoss,
    ScriptedLoss,
    Simulator,
    duplex_link,
)


class FakePacket:
    """Minimal transmittable object."""

    def __init__(self, size_bytes=100, tag=None):
        self.size_bytes = size_bytes
        self.ecn = False
        self.tag = tag


class Sink(Node):
    """Records every delivered packet with its arrival time."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, link):
        self.received.append((self.sim.now, packet))


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestLinkTransmission:
    def test_delivery_time_is_serialization_plus_propagation(self, sim):
        sink = Sink(sim)
        link = Link(sim, src=None, dst=sink, bandwidth_bps=1e9,
                    delay_s=1e-3)
        pkt = FakePacket(size_bytes=1000 - ETHERNET_OVERHEAD_BYTES)
        assert link.send(pkt)
        sim.run()
        # 1000 wire bytes at 1 Gbps = 8 us, plus 1 ms propagation.
        assert sink.received[0][0] == pytest.approx(8e-6 + 1e-3)

    def test_packets_serialize_back_to_back(self, sim):
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e9, delay_s=0.0)
        wire = 1000
        for _ in range(3):
            link.send(FakePacket(size_bytes=wire - ETHERNET_OVERHEAD_BYTES))
        sim.run()
        times = [t for t, _ in sink.received]
        assert times == pytest.approx([8e-6, 16e-6, 24e-6])

    def test_queue_tail_drop(self, sim):
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e6, delay_s=0.0,
                    queue_capacity_pkts=2)
        results = [link.send(FakePacket()) for _ in range(5)]
        # First packet starts transmitting immediately (dequeued), two queue,
        # so sends 1-3 are accepted; the rest tail-drop.
        assert results[:3] == [True, True, True]
        assert results[3:] == [False, False]
        assert link.stats["queue_drops"] == 2
        sim.run()
        assert len(sink.received) == 3

    def test_ecn_marking_on_queue_buildup(self, sim):
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e6, delay_s=0.0,
                    queue_capacity_pkts=100, ecn_threshold_pkts=2)
        pkts = [FakePacket(tag=i) for i in range(6)]
        for p in pkts:
            link.send(p)
        sim.run()
        marked = [p.tag for p in pkts if p.ecn]
        # Queue occupancy at enqueue: pkt0 starts tx, pkt1->1, pkt2->2 etc.
        assert marked == [3, 4, 5]
        assert link.stats["ecn_marks"] == 3

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, None, None, bandwidth_bps=0, delay_s=0)
        with pytest.raises(ValueError):
            Link(sim, None, None, bandwidth_bps=1, delay_s=-1)

    def test_duplex_link_wires_both_directions(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        fwd, bwd = duplex_link(sim, a, b, 1e9, 1e-6)
        assert fwd.dst is b and bwd.dst is a

    def test_stats_count_bytes(self, sim):
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e9, delay_s=0.0)
        link.send(FakePacket(size_bytes=500))
        sim.run()
        assert link.stats["sent_bytes"] == 500


class TestLossModels:
    def test_no_loss_never_drops(self, sim):
        model = NoLoss()
        assert not any(model.drops(FakePacket(), sim.rng)
                       for _ in range(100))

    def test_random_loss_rate_zero_and_one(self, sim):
        assert not any(RandomLoss(0.0).drops(FakePacket(), sim.rng)
                       for _ in range(100))
        assert all(RandomLoss(1.0).drops(FakePacket(), sim.rng)
                   for _ in range(100))

    def test_random_loss_rate_approximates_target(self, sim):
        model = RandomLoss(0.3)
        drops = sum(model.drops(FakePacket(), sim.rng)
                    for _ in range(10_000))
        assert 0.25 < drops / 10_000 < 0.35

    def test_random_loss_validates_rate(self):
        with pytest.raises(ValueError):
            RandomLoss(1.5)

    def test_scripted_loss_drops_exact_ordinals(self, sim):
        model = ScriptedLoss([1, 3])
        results = [model.drops(FakePacket(), sim.rng) for _ in range(5)]
        assert results == [False, True, False, True, False]

    def test_burst_loss_produces_bursts(self, sim):
        model = BurstLoss(p_enter=0.05, p_exit=0.2, bad_rate=1.0)
        outcomes = [model.drops(FakePacket(), sim.rng)
                    for _ in range(10_000)]
        # Losses must occur and cluster: count runs of consecutive drops.
        assert any(outcomes)
        runs, current = [], 0
        for o in outcomes:
            if o:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert max(runs) >= 2  # at least one genuine burst

    def test_wire_loss_counted_in_stats(self, sim):
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e9, delay_s=0.0,
                    loss=ScriptedLoss([0]))
        link.send(FakePacket())
        link.send(FakePacket())
        sim.run()
        assert link.stats["wire_drops"] == 1
        assert len(sink.received) == 1

    @pytest.mark.parametrize("first, second", [
        (NoLoss, lambda: RandomLoss(0.0)),      # fused -> two-event
        (lambda: RandomLoss(0.0), NoLoss),      # two-event -> fused
    ], ids=["from-fused", "from-two-event"])
    def test_loss_swap_needs_idle_transmitter(self, sim, first, second):
        # The model's type picks the transmit state machine; swapping it
        # mid-serialization would leave both live and strand the queue.
        sink = Sink(sim)
        link = Link(sim, None, sink, bandwidth_bps=1e9, delay_s=1e-3,
                    loss=first(), name="l")
        link.send(FakePacket())
        with pytest.raises(RuntimeError, match="link l.*busy"):
            link.loss = second()                # serializing
        link.send(FakePacket())
        with pytest.raises(RuntimeError, match="link l.*busy"):
            link.loss = second()                # serializing + queued
        sim.run(until=5e-4)                     # both on the wire: idle
        link.loss = second()
        link.send(FakePacket())
        sim.run()
        assert len(sink.received) == 3


class TestHost:
    def test_zero_cpu_cost_delivers_immediately(self, sim):
        host = Host(sim, "h", cores=1, rx_cpu_cost_s=0.0)
        seen = []
        host.set_handler(lambda p, l: seen.append(sim.now))
        host.receive(FakePacket(), None)
        assert seen == [0.0]

    def test_cpu_cost_delays_delivery(self, sim):
        host = Host(sim, "h", cores=1, rx_cpu_cost_s=1e-3)
        seen = []
        host.set_handler(lambda p, l: seen.append(sim.now))
        host.receive(FakePacket(), None)
        sim.run()
        assert seen == [pytest.approx(1e-3)]

    def test_single_core_serializes_processing(self, sim):
        host = Host(sim, "h", cores=1, rx_cpu_cost_s=1e-3)
        seen = []
        host.set_handler(lambda p, l: seen.append(sim.now))
        host.receive(FakePacket(), None)
        host.receive(FakePacket(), None)
        sim.run()
        assert seen == [pytest.approx(1e-3), pytest.approx(2e-3)]

    def test_multiple_cores_process_in_parallel(self, sim):
        host = Host(sim, "h", cores=2, rx_cpu_cost_s=1e-3)
        seen = []
        host.set_handler(lambda p, l: seen.append(sim.now))
        host.receive(FakePacket(), None)
        host.receive(FakePacket(), None)
        sim.run()
        assert seen == [pytest.approx(1e-3), pytest.approx(1e-3)]

    def test_no_handler_counts_drop(self, sim):
        host = Host(sim, "h")
        host.receive(FakePacket(), None)
        sim.run()
        assert host.stats["dropped_no_handler"] == 1

    def test_needs_at_least_one_core(self, sim):
        with pytest.raises(ValueError):
            Host(sim, "h", cores=0)

    def test_send_requires_attached_link(self, sim):
        host = Host(sim, "h")
        with pytest.raises(KeyError):
            host.send(FakePacket(), "nowhere")
