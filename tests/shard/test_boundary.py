"""Differential test: boundary egress vs a real same-simulator Link.

The sharded run is bit-identical to the single-core run only if
``ShardEgressLink`` reproduces ``Link``'s serialization timing, queue
occupancy, ECN marking, and drop-tail decisions *byte for byte*.  This
suite drives both through identical offered loads — idle sends, queued
bursts, deep backlogs past the drop threshold — and requires the
delivery timestamps (outbox vs actual receive events) and the merged
counter dicts to match exactly.
"""

import pytest

from repro.netsim import NoLoss, RandomLoss, Reorder, Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.shard import FlowPacket, IngressBridge, ShardEgressLink
from repro.shard.boundary import RemoteNode

BW = 100e9
DELAY = 10e-6


class _Recorder(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.seen = []

    def receive(self, packet):
        self.seen.append((self.sim.now, packet.flow_id, packet.seq,
                          packet.ecn))


def _pkt(seq, size=1000):
    return FlowPacket(1, seq, "a", "b", size)


def _drive(schedule, **link_kwargs):
    """Run the same schedule through a real Link and an egress stub;
    return (real deliveries, stub outbox, real stats, stub stats)."""
    sim_real = Simulator(seed=0)
    src = _Recorder(sim_real, "src")
    dst = _Recorder(sim_real, "dst")
    real = Link(sim_real, src, dst, BW, DELAY, **link_kwargs)
    for when, seq, size in schedule:
        sim_real.schedule_at(when, real.send, _pkt(seq, size))
    sim_real.run()

    sim_stub = Simulator(seed=0)
    src2 = _Recorder(sim_stub, "src")
    stub = ShardEgressLink(sim_stub, src2, "dst", BW, DELAY, **link_kwargs)
    for when, seq, size in schedule:
        sim_stub.schedule_at(when, stub.send, _pkt(seq, size))
    sim_stub.run()

    real_deliveries = [(t, seq, ecn) for t, _f, seq, ecn in dst.seen]
    stub_deliveries = [(when, p.seq, p.ecn) for when, p in stub.outbox]
    return (real_deliveries, stub_deliveries,
            real.stats.as_dict(), stub.stats.as_dict())


def _sender_side(stats):
    """Real-Link counters minus delivery accounting: the egress half of
    a cut link never delivers; its IngressBridge counts that."""
    return {k: v for k, v in stats.items() if k != "delivered_pkts"}


def test_idle_sends_byte_identical():
    schedule = [(i * 1e-4, i, 600 + 100 * i) for i in range(5)]
    real, stub, real_stats, stub_stats = _drive(schedule)
    assert stub == real
    assert stub_stats == _sender_side(real_stats)


def test_back_to_back_burst_queues_identically():
    schedule = [(1e-5, seq, 1480) for seq in range(16)]
    real, stub, real_stats, stub_stats = _drive(schedule)
    assert stub == real
    assert stub_stats == _sender_side(real_stats)


def test_deep_backlog_drops_and_ecn_identical():
    # 40 packets into a 8-deep queue with ECN at 4: drops + marks.
    schedule = [(1e-5, seq, 1480) for seq in range(40)]
    schedule += [(2e-5 + i * 1e-7, 100 + i, 700) for i in range(10)]
    real, stub, real_stats, stub_stats = _drive(
        schedule, queue_capacity_pkts=8, ecn_threshold_pkts=4)
    assert stub == real
    assert real_stats["queue_drops"] > 0
    assert real_stats["ecn_marks"] > 0
    assert stub_stats == _sender_side(real_stats)


def test_counter_split_sums_to_link_counters():
    schedule = [(1e-5, seq, 1480) for seq in range(12)]
    real, stub, real_stats, stub_stats = _drive(
        schedule, queue_capacity_pkts=8, ecn_threshold_pkts=4)

    # Replay the stub outbox through an IngressBridge in a fresh sim —
    # the receiver-side half of the cut link.
    sim = Simulator(seed=0)
    dst = _Recorder(sim, "dst")
    bridge = IngressBridge(sim, dst, "src")
    for when, seq, ecn in stub:
        bridge.inject(when, FlowPacket(1, seq, "a", "b", 1480, ecn))
    sim.run()

    merged = dict(stub_stats)
    for key, value in bridge.stats.as_dict().items():
        merged[key] = merged.get(key, 0) + value
    assert merged == real_stats
    assert [t for t, *_ in dst.seen] == [t for t, *_ in real]


def test_egress_requires_positive_delay():
    sim = Simulator(seed=0)
    src = _Recorder(sim, "src")
    try:
        ShardEgressLink(sim, src, "dst", BW, 0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("zero-delay boundary link must be rejected")


@pytest.mark.parametrize("model", [RandomLoss(0.0), Reorder(1e-6)],
                         ids=["loss", "fault"])
def test_egress_rejects_loss_models(model):
    # A cut link hands deliveries over a propagation delay ahead of
    # time; a model that draws at serialization end cannot run there.
    sim = Simulator(seed=0)
    src = _Recorder(sim, "src")
    with pytest.raises(ValueError, match=r"src->dst.*lookahead"):
        ShardEgressLink(sim, src, "dst", BW, DELAY, loss=model)
    stub = ShardEgressLink(sim, src, "dst", BW, DELAY, loss=NoLoss())
    with pytest.raises(ValueError, match=r"src->dst.*lookahead"):
        stub.loss = model
    stub.loss = NoLoss()
    assert stub.send(_pkt(0))


def test_egress_half_never_delivers_locally():
    # The sender half of a cut link only fills its outbox; a local
    # delivery would mean a packet skipped the shard channel.
    sim = Simulator(seed=0)
    stub = ShardEgressLink(sim, _Recorder(sim, "src"), "dst", BW, DELAY)
    for deliver in (stub._deliver, RemoteNode("dst").receive):
        with pytest.raises(AssertionError, match="locally"):
            deliver(_pkt(0))
