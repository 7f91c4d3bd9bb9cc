"""Perf-regression smoke guards for the simulation core.

These do not time anything (wall-clock assertions are flaky in CI);
they bound the *event count* instead, which is what the fused link
fast path actually buys: a packet crossing a lossless link must cost
at most two scheduled events (delivery, plus at most one shared
``_start_next`` pop when it queued behind another packet), and exactly
one when it finds the transmitter idle.  A regression to the classic
serialization-done + propagation-done model doubles these numbers and
fails loudly here.
"""

from repro.netsim import Host, Link, RandomLoss, Simulator
from repro.netsim.node import Node


class _Packet:
    __slots__ = ("size_bytes",)

    def __init__(self, size_bytes=256):
        self.size_bytes = size_bytes


def _rig(n_packets, **link_kwargs):
    sim = Simulator(seed=0)
    src = Node(sim, "src")
    dst = Host(sim, "dst", cores=1, rx_cpu_cost_s=0.0)
    delivered = []
    dst.set_handler(lambda pkt: delivered.append(pkt))
    link = Link(sim, src, dst, bandwidth_bps=10e9, delay_s=1e-6,
                queue_capacity_pkts=n_packets + 1,
                ecn_threshold_pkts=n_packets + 1, **link_kwargs)
    return sim, link, delivered


def test_queued_packets_cost_at_most_two_events_each():
    n = 1000
    sim, link, delivered = _rig(n)
    before = sim._sequence
    for _ in range(n):
        assert link.send(_Packet())
    sim.run()
    scheduled = sim._sequence - before
    assert len(delivered) == n
    # n deliveries + (n - 1) _start_next pops: the first packet finds
    # the transmitter idle and costs a single event.
    assert scheduled <= 2 * n
    assert scheduled == 2 * n - 1


def test_idle_transmitter_costs_one_event_per_packet():
    sim, link, delivered = _rig(16)
    for i in range(16):
        before = sim._sequence
        assert link.send(_Packet())
        sim.run()          # drain: next send finds the link idle again
        assert sim._sequence - before == 1
    assert len(delivered) == 16


def test_lossy_link_keeps_two_event_model():
    # The fused path must not engage when a loss model is installed
    # (the loss draw happens at serialization end, between the two
    # events); rate 0.0 keeps the run deterministic.
    n = 100
    sim, link, delivered = _rig(n, loss=RandomLoss(0.0))
    before = sim._sequence
    for _ in range(n):
        assert link.send(_Packet())
    sim.run()
    assert len(delivered) == n
    assert sim._sequence - before == 2 * n
