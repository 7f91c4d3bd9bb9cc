"""Perf-regression smoke guards for the simulation core.

These do not time anything (wall-clock assertions are flaky in CI);
they pin the *event count* instead, which is what the analytic link
transmitter buys: a packet crossing a link costs exactly one scheduled
event, its delivery, whether it finds the transmitter idle or queues
behind other packets.  A regression to an event per serialization
start, or to the classic serialization-done + propagation-done model,
fails loudly here.
"""

from repro.netsim import Host, Link, Simulator
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
    # One delivery each, queued or not: well inside the two-event bound.
    assert scheduled == n


def test_idle_transmitter_costs_one_event_per_packet():
    sim, link, delivered = _rig(16)
    for i in range(16):
        before = sim._sequence
        assert link.send(_Packet())
        sim.run()          # drain: next send finds the link idle again
        assert sim._sequence - before == 1
    assert len(delivered) == 16

