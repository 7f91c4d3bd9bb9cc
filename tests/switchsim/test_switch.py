"""Integration tests for the switch node: routing, multicast, ECN, recirc."""

import pytest

from repro.netsim import Calibration, Host, Simulator, scaled, star
from repro.protocol import (
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    KVPair,
    Packet,
    RIPProgram,
)
from repro.switchsim import AppEntry, NetRPCSwitch, PlainSwitch


CAL = scaled(host_pkt_cpu_s=0.0)


def build_rack(sim, n_hosts=3, switch_cls=NetRPCSwitch):
    switch = switch_cls(sim, "sw0", cal=CAL)
    hosts = [Host(sim, f"h{i}") for i in range(n_hosts)]
    topo = star(sim, switch, hosts, cal=CAL)
    return switch, hosts, topo


def collect(host):
    received = []
    host.set_handler(lambda p, l: received.append(p))
    return received


def kv_packet(gaid=1, src="h0", dst="h2", seqno=0, values=((0, 5),),
              **kwargs):
    kv = [KVPair(addr=a, value=v, mapped=True) for a, v in values]
    pkt = Packet(gaid=gaid, src=src, dst=dst, seq=seqno, kv=kv, **kwargs)
    pkt.select_all_slots()
    return pkt


AGGR = RIPProgram(app_name="aggr", get_field="r.t", add_to_field="q.t")


class TestPlainSwitch:
    def test_forwards_by_destination(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim, switch_cls=PlainSwitch)
        rx = collect(hosts[2])
        pkt = kv_packet()
        hosts[0].send(pkt, "sw0")
        sim.run()
        assert rx == [pkt]

    def test_static_route_fallback(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim, switch_cls=PlainSwitch)
        rx = collect(hosts[1])
        switch.add_route("far-away", "h1")
        pkt = kv_packet(dst="far-away")
        hosts[0].send(pkt, "sw0")
        sim.run()
        assert len(rx) == 1

    def test_unroutable_raises(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim, switch_cls=PlainSwitch)
        with pytest.raises(KeyError):
            switch.next_hop_for("nowhere")


class TestNetRPCSwitchDataPath:
    def test_unadmitted_gaid_forwards_without_inc(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        rx = collect(hosts[2])
        hosts[0].send(kv_packet(gaid=99), "sw0")
        sim.run()
        assert len(rx) == 1
        assert switch.registers.read(0) == 0
        assert switch.stats["unadmitted_pkts"] == 1

    def test_admitted_packet_is_processed_and_forwarded(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=AGGR, server="h2",
                                    clients=("h0", "h1")))
        rx = collect(hosts[2])
        hosts[0].send(kv_packet(values=((0, 5),)), "sw0")
        sim.run()
        assert switch.registers.read(0) == 5
        assert len(rx) == 1
        assert rx[0].kv[0].value == 5  # get read the aggregate back

    def test_multicast_copies_to_all_clients(self):
        vote = RIPProgram(app_name="v", get_field="v.k", add_to_field="v.k",
                          cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                            threshold=2))
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=vote, server="h2",
                                    clients=("h0", "h1")))
        rx0, rx1, rx2 = (collect(h) for h in hosts)
        hosts[0].send(kv_packet(src="h0", seqno=0, is_cnf=True,
                                cnt_index=10), "sw0")
        hosts[1].send(kv_packet(src="h1", seqno=0, is_cnf=True,
                                cnt_index=10), "sw0")
        sim.run()
        assert len(rx0) == 1 and len(rx1) == 1
        assert not rx2  # server not involved: sub-RTT path
        # Copies must not alias.
        rx0[0].kv[0].value = 777
        assert rx1[0].kv[0].value != 777

    def test_multicast_copies_carry_the_size_of_their_own_fields(self):
        # The fan-out hands every copy the trigger's cached wire size.
        # That is only sound because a copy differs from it in no
        # size-affecting field: the size must equal a fresh computation
        # from the copy's own fields (Packet.copy drops the cache).
        vote = RIPProgram(app_name="v", add_to_field="v.k",
                          cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                            threshold=2))
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=vote, server="h2",
                                    clients=("h0", "h1", "h2")))
        rx = [collect(h) for h in hosts]
        for index, src in enumerate(("h0", "h1")):
            hosts[index].send(kv_packet(
                src=src, values=((0, 5), (1, 6), (2, 7)), is_cnf=True,
                cnt_index=10, acks=(3, 4), payload_bytes=40), "sw0")
        sim.run()
        copies = [pkt for received in rx for pkt in received]
        assert len(copies) == 3 and all(p.is_mcast for p in copies)
        for pkt in copies:
            assert pkt._size is not None             # handed on, not read
            assert pkt.size_bytes == pkt.copy().size_bytes == \
                56 + 3 * 8 + 8 + 2 * 4 + 40

    def test_multicast_copies_share_one_fresh_ecn_echo(self):
        vote = RIPProgram(app_name="v", add_to_field="v.k",
                          cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                            threshold=2))
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=vote, server="h2",
                                    clients=("h0", "h1")))
        rx = [collect(h) for h in hosts[:2]]
        marked = kv_packet(src="h0", is_cnf=True, cnt_index=10)
        marked.ecn = True                 # data-path congestion on record
        hosts[0].send(marked, "sw0")
        hosts[1].send(kv_packet(src="h1", is_cnf=True, cnt_index=10), "sw0")
        sim.run()
        assert [len(received) for received in rx] == [1, 1]
        assert all(received[0].ecn_echo for received in rx)

    def test_below_threshold_absorbed(self):
        vote = RIPProgram(app_name="v", add_to_field="v.k",
                          cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                            threshold=2))
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=vote, server="h2",
                                    clients=("h0", "h1")))
        rx = collect(hosts[2])
        hosts[0].send(kv_packet(is_cnf=True, cnt_index=10), "sw0")
        sim.run()
        assert not rx
        assert switch.stats["cntfwd_absorbed"] == 1

    def test_bounce_returns_to_source(self):
        query = RIPProgram(app_name="q", get_field="q.k",
                           cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=query, server="h2",
                                    clients=("h0",)))
        switch.registers.add(0, 42)
        rx = collect(hosts[0])
        hosts[0].send(kv_packet(src="h0", values=((0, 0),)), "sw0")
        sim.run()
        assert len(rx) == 1
        assert rx[0].kv[0].value == 42
        assert switch.stats["bounced_pkts"] == 1

    def test_recirculation_adds_latency(self):
        shadow = RIPProgram(app_name="s", get_field="r.t",
                            add_to_field="q.t", clear=ClearPolicy.SHADOW)
        plain = RIPProgram(app_name="p", get_field="r.t", add_to_field="q.t")
        times = {}
        for name, prog, extra in [("plain", plain, {}),
                                  ("shadow", shadow,
                                   {"shadow_offset": 32})]:
            sim = Simulator()
            switch, hosts, _ = build_rack(sim)
            switch.install_app(AppEntry(gaid=1, program=prog, server="h2",
                                        clients=("h0",)))
            rx = []
            hosts[2].set_handler(lambda p, l: rx.append(sim.now))
            hosts[0].send(kv_packet(**extra), "sw0")
            sim.run()
            times[name] = rx[0]
        assert times["shadow"] > times["plain"]

    def test_control_plane_read_and_clear(self):
        sim = Simulator()
        switch, _, _ = build_rack(sim)
        switch.registers.add(3, 77)
        out = switch.ctrl_read_and_clear([3])
        assert out == [(3, 77, False)]
        assert switch.registers.read(3) == 0

    def test_poll_timestamps_reflect_traffic(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=AGGR, server="h2"))
        collect(hosts[2])
        hosts[0].send(kv_packet(), "sw0")
        sim.run()
        stamps = switch.poll_timestamps()
        assert stamps[1] > 0.0

    def test_remove_app_stops_inc(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        switch.install_app(AppEntry(gaid=1, program=AGGR, server="h2"))
        switch.remove_app(1)
        collect(hosts[2])
        hosts[0].send(kv_packet(), "sw0")
        sim.run()
        assert switch.registers.read(0) == 0


class TestECNReflection:
    def test_fresh_mark_taints_return_packets(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        query = RIPProgram(app_name="q", get_field="q.k",
                           cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        switch.install_app(AppEntry(gaid=1, program=query, server="h2",
                                    clients=("h0",)))
        rx = collect(hosts[0])
        marked = kv_packet(src="h0")
        marked.ecn = True
        hosts[0].send(marked, "sw0")
        # A second, unmarked query shortly after still sees the echo.
        second = kv_packet(src="h0", seqno=1)
        hosts[0].send(second, "sw0")
        sim.run()
        assert all(p.ecn or p.ecn_echo for p in rx)

    def test_stale_mark_expires(self):
        sim = Simulator()
        switch, hosts, _ = build_rack(sim)
        query = RIPProgram(app_name="q", get_field="q.k",
                           cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        switch.install_app(AppEntry(gaid=1, program=query, server="h2",
                                    clients=("h0",)))
        rx = collect(hosts[0])
        marked = kv_packet(src="h0")
        marked.ecn = True
        hosts[0].send(marked, "sw0")
        sim.run()
        # Much later than the freshness horizon, a new query is clean.
        sim.run(until=sim.now + 10 * CAL.ecn_freshness_s)
        hosts[0].send(kv_packet(src="h0", seqno=1), "sw0")
        sim.run()
        assert (rx[0].ecn or rx[0].ecn_echo)
        assert not rx[1].ecn and not rx[1].ecn_echo
