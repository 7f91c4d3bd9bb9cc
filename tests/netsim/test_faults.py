"""Unit tests for the fault-injection layer (repro.netsim.faults)."""

import pytest

from repro.control import build_rack
from repro.netsim import (
    ChaosSchedule,
    CompositeFault,
    Corrupt,
    Duplicate,
    Host,
    HostPause,
    InvariantChecker,
    Link,
    LinkFault,
    LinkFlap,
    Node,
    RandomLoss,
    Reorder,
    ScriptedLoss,
    Simulator,
    SwitchReboot,
)
from repro.switchsim import FlowStateTable


class _Sink(Node):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet))

    @property
    def seqs(self):
        return [p.seq for _, p in self.received]


class _FakePacket:
    """Minimal wire object with copy() and a gaid, like Packet."""

    _uids = iter(range(1_000_000))

    def __init__(self, seq, gaid=5):
        self.seq = seq
        self.gaid = gaid
        self.size_bytes = 256
        self.uid = next(self._uids)

    def copy(self):
        dup = _FakePacket(self.seq, self.gaid)
        return dup


def _wire(sim, loss, bandwidth_bps=1e9, delay_s=1e-6):
    src = _Sink(sim, "src")
    sink = _Sink(sim, "sink")
    link = Link(sim, src, sink, bandwidth_bps=bandwidth_bps,
                delay_s=delay_s, loss=loss)
    return link, sink


class TestFaultModels:
    def test_fault_window_is_judged_at_arrival(self):
        # Sent before the flap, arriving inside it: dropped.  Sent
        # inside it, arriving after: delivered.
        sim = Simulator(seed=1)
        link, sink = _wire(sim, LinkFlap(down_at=5e-6, up_at=2e-5),
                           delay_s=1e-5)
        link.send(_FakePacket(0))
        sim.schedule_at(1.5e-5, lambda p: link.send(p), _FakePacket(1))
        sim.run()
        assert sink.seqs == [1]
        assert link.stats.as_dict()["flap_drops"] == 1

    def test_reorder_shuffles_arrivals_but_loses_nothing(self):
        sim = Simulator(seed=3)
        # Jitter far above the serialization time so swaps are certain.
        link, sink = _wire(sim, Reorder(jitter_s=1e-4))
        for i in range(30):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert sorted(sink.seqs) == list(range(30))
        assert sink.seqs != list(range(30))
        assert link.stats.as_dict()["reordered_pkts"] == 30

    def test_duplicate_delivers_distinct_copies(self):
        sim = Simulator(seed=1)
        link, sink = _wire(sim, Duplicate(rate=1.0))
        for i in range(5):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert sorted(sink.seqs) == sorted(list(range(5)) * 2)
        uids = [p.uid for _, p in sink.received]
        assert len(set(uids)) == 10  # copies, not aliases
        assert link.stats.as_dict()["dup_pkts"] == 5

    def test_corrupt_fcs_mode_drops(self):
        sim = Simulator(seed=1)
        link, sink = _wire(sim, Corrupt(rate=1.0, mode="fcs"))
        for i in range(4):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert sink.received == []
        stats = link.stats.as_dict()
        assert stats["corrupt_pkts"] == 4
        assert stats["wire_drops"] == 4

    def test_corrupt_gaid_mode_mangles_a_copy(self):
        sim = Simulator(seed=1)
        link, sink = _wire(sim, Corrupt(rate=1.0, mode="gaid"))
        original = _FakePacket(0, gaid=7)
        link.send(original)
        sim.run(until=1.0)
        ((_, delivered),) = sink.received
        assert delivered.gaid == 7 ^ Corrupt.GAID_FLIP_BIT
        # The sender's pending-table object keeps the true GAID.
        assert original.gaid == 7

    def test_link_flap_drops_only_inside_the_window(self):
        sim = Simulator(seed=1)
        link, sink = _wire(sim, LinkFlap(down_at=1e-3, up_at=2e-3))
        link.send(_FakePacket(0))            # before the flap
        sim.schedule_at(1.5e-3, lambda _: link.send(_FakePacket(1)), None)
        sim.schedule_at(2.5e-3, lambda _: link.send(_FakePacket(2)), None)
        sim.run(until=1.0)
        assert sink.seqs == [0, 2]
        assert link.stats.as_dict()["flap_drops"] == 1

    def test_inactive_window_makes_no_rng_draws(self):
        # Outside its window a fault must not advance the simulator RNG,
        # or arming a future fault would perturb the pre-fault prefix.
        sim = Simulator(seed=9)
        link, sink = _wire(sim, Reorder(jitter_s=1e-3, start=5.0))
        state_before = sim.rng.getstate()
        for i in range(10):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert sim.rng.getstate() == state_before
        assert sink.seqs == list(range(10))

    def test_composite_chains_and_adapts_plain_loss(self):
        sim = Simulator(seed=2)
        model = CompositeFault([RandomLoss(0.0), Duplicate(1.0),
                                ScriptedLoss([])])
        link, sink = _wire(sim, model)
        link.send(_FakePacket(0))
        sim.run(until=1.0)
        assert len(sink.received) == 2   # loss stages pass, dup doubles

    def test_composite_flap_blackholes_everything(self):
        sim = Simulator(seed=2)
        model = CompositeFault([Duplicate(1.0), LinkFlap(0.0, 10.0)])
        link, sink = _wire(sim, model)
        for i in range(3):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert sink.received == []


class TestHostPause:
    def test_pause_buffers_and_flushes_in_order(self):
        sim = Simulator(seed=1)
        host = Host(sim, "h0")
        seen = []
        host.set_handler(lambda pkt: seen.append((sim.now, pkt.seq)))
        link = Link(sim, _Sink(sim, "src"), host, bandwidth_bps=1e9,
                    delay_s=1e-6)
        host.pause(1e-3)
        for i in range(5):
            link.send(_FakePacket(i))
        sim.run(until=1.0)
        assert [seq for _, seq in seen] == list(range(5))
        assert all(abs(t - 1e-3) < 1e-9 for t, _ in seen)
        # Buffered packets are counted once, at dispatch.
        assert host.stats.as_dict()["rx_pkts"] == 5

    def test_overlapping_pauses_extend(self):
        sim = Simulator(seed=1)
        host = Host(sim, "h0")
        seen = []
        host.set_handler(lambda pkt: seen.append(sim.now))
        link = Link(sim, _Sink(sim, "src"), host, bandwidth_bps=1e9,
                    delay_s=1e-6)
        host.pause(1e-3)
        sim.schedule_at(5e-4, lambda _: host.pause(1e-3), None)
        link.send(_FakePacket(0))
        sim.run(until=1.0)
        assert len(seen) == 1
        assert abs(seen[0] - 1.5e-3) < 1e-9


class TestFlowStateResync:
    def test_clear_state_preserves_allocator(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        table.check_and_update(slot, 0, 0)
        before = table.next_slot
        table.clear_state()
        assert table.next_slot == before
        # All-ones again: seq 0 / flip 0 reads as a first appearance.
        assert not table.check_and_update(slot, 0, 0)

    def test_restore_round_trips(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        table.restore(slot, 0b1010_1010)
        # stored bits: seq 1 holds 1, seq 0 holds 0 — both repeat
        assert table.check_and_update(slot, 1, 1)
        assert table.check_and_update(slot, 0, 0)

    def test_flip_resync_classifies_next_arrivals_as_fresh(self):
        from repro.inc import ReliableFlow
        from repro.netsim import scaled

        cal = scaled(w_max=16, initial_cwnd=16, retransmit_timeout_s=1.0)
        sim = Simulator(seed=1)
        host = Host(sim, "h0")
        sink = _Sink(sim)
        host.attach_egress(Link(sim, host, sink, bandwidth_bps=100e9,
                                delay_s=1e-6))
        flow = ReliableFlow(sim, host, "sink", srrt=0, cal=cal)
        for i in range(20):
            from repro.protocol import KVBlock, Packet
            flow.enqueue(Packet(gaid=1, src="h0", dst="server",
                                kv=KVBlock.from_columns([0], [1]),
                                task_id=1, offset=i * 32))
        sim.run(until=1e-4)
        for seq in (0, 1, 2, 5):   # 5 is acked out of order
            flow.ack(seq)

        table = FlowStateTable(w_max=16)
        slot = table.allocate()
        table.restore(slot, flow.flip_resync_bits())
        # Pending head (seq 3) must re-register as a first appearance so
        # its register contribution — wiped by the same reboot — is
        # re-added; a second copy of it is then a retransmission.
        assert not table.check_and_update(slot, 3, (3 // 16) % 2)
        assert table.check_and_update(slot, 3, (3 // 16) % 2)
        # Index of the out-of-order-ACKed seq 5: the next arrival there
        # is 21 (next window), which must classify as fresh.
        assert not table.check_and_update(slot, 21, (21 // 16) % 2)
        # An in-window pending seq beyond the head behaves like the head.
        assert not table.check_and_update(slot, 10, 0)


class TestSwitchRebootUnit:
    def test_reboot_clears_volatile_state_and_failover_restores(self):
        dep = build_rack(2, 1, seed=1)
        from repro.experiments.common import sync_program
        (config,) = dep.controller.register(
            [sync_program(2)], server=dep.server_name,
            clients=dep.client_names[:2], value_slots=1024,
            counter_slots=128, linear=True)
        switch = dep.switches[0]
        addr = config.value_region.base + 3
        switch.ctrl_write(addr, 42)
        allocator_before = switch.flow_state.next_slot
        assert switch.admission.timestamps()

        switch.reboot()
        assert switch.registers.occupied_addrs() == []
        assert switch.admission.timestamps() == {}
        assert switch.flow_state.next_slot == allocator_before
        assert switch.stats.as_dict()["reboots"] == 1

        dep.controller.handle_switch_reboot(switch)
        assert config.gaid in switch.admission
        entry = switch.admission.lookup(config.gaid)
        assert entry.last_seen == dep.sim.now
        assert entry.clients == tuple(dep.client_names[:2])
        # Idempotent: a second failover pass installs nothing twice.
        dep.controller.handle_switch_reboot(switch)


class TestChaosSchedule:
    def test_random_is_a_pure_function_of_seed_and_topology(self):
        dep_a = build_rack(2, 1, seed=1)
        dep_b = build_rack(2, 1, seed=99)   # different sim seed, same topo
        kwargs = dict(t0=1e-6, t1=5e-6, n_link_faults=4,
                      n_switch_reboots=1, n_host_pauses=1)
        sched_a = ChaosSchedule.random(7, dep_a, **kwargs)
        sched_b = ChaosSchedule.random(7, dep_b, **kwargs)
        assert sched_a.canonical() == sched_b.canonical()
        assert sched_a.fingerprint() == sched_b.fingerprint()
        assert ChaosSchedule.random(8, dep_a, **kwargs).fingerprint() \
            != sched_a.fingerprint()

    def test_generation_does_not_touch_the_sim_rng(self):
        dep = build_rack(2, 1, seed=1)
        state = dep.sim.rng.getstate()
        ChaosSchedule.random(7, dep, t0=0.0, t1=1e-3)
        assert dep.sim.rng.getstate() == state

    def test_install_rejects_unknown_link(self):
        dep = build_rack(2, 1, seed=1)
        sched = ChaosSchedule([LinkFault(src="nope", dst="c0",
                                         kind="flap", at=0.0,
                                         duration_s=1.0)])
        with pytest.raises(KeyError):
            sched.install(dep)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(src="a", dst="b", kind="melt", at=0.0, duration_s=1.0)

    def test_install_wraps_existing_loss_model(self):
        dep = build_rack(2, 1, seed=1,
                         loss_factory=lambda: RandomLoss(0.5))
        key = next(iter(sorted(dep.topology.links)))
        sched = ChaosSchedule([LinkFault(src=key[0], dst=key[1],
                                         kind="duplicate", at=0.0,
                                         duration_s=1.0, rate=1.0)])
        sched.install(dep)
        model = dep.topology.links[key].loss
        assert isinstance(model, CompositeFault)
        assert isinstance(model.models[0], RandomLoss)

    def test_schedules_node_faults(self):
        dep = build_rack(2, 1, seed=1)
        sched = ChaosSchedule([
            SwitchReboot(switch=dep.switches[0].name, at=1e-4),
            HostPause(host="c0", at=1e-4, duration_s=1e-5),
        ])
        sched.install(dep)
        dep.sim.run(until=1e-3)
        assert dep.switches[0].stats.as_dict()["reboots"] == 1
        assert dep.clients[0].stats.as_dict()["pauses"] == 1


class TestInvariantChecker:
    def test_clean_deployment_has_no_violations(self):
        dep = build_rack(2, 1, seed=1)
        from repro.experiments.common import sync_program
        dep.controller.register(
            [sync_program(2)], server=dep.server_name,
            clients=dep.client_names[:2], value_slots=1024,
            counter_slots=128, linear=True)
        checker = InvariantChecker(dep)
        checker.observe()
        dep.sim.run(until=1e-3)
        checker.observe()
        checker.raise_if_violated()

    def test_pool_conservation_survives_deregistration(self):
        dep = build_rack(2, 1, seed=1)
        from repro.experiments.common import sync_program
        checker = InvariantChecker(dep)
        dep.controller.register(
            [sync_program(2, app_name="A")], server=dep.server_name,
            clients=dep.client_names[:2], value_slots=1024,
            counter_slots=128, linear=True)
        checker.observe()
        dep.controller.deregister("A")
        checker.observe()
        assert checker.violations == []

    def test_pool_leak_is_detected(self):
        dep = build_rack(2, 1, seed=1)
        from repro.experiments.common import sync_program
        dep.controller.register(
            [sync_program(2, app_name="A")], server=dep.server_name,
            clients=dep.client_names[:2], value_slots=1024,
            counter_slots=128, linear=True)
        checker = InvariantChecker(dep)
        dep.controller.deregister("A")
        dep.controller.pool._freed_values.pop()   # simulate a leak
        checker.observe()
        assert any("leaked" in v for v in checker.violations)

    def test_silent_wrong_answer_is_a_violation(self):
        dep = build_rack(2, 1, seed=1)
        checker = InvariantChecker(dep)
        assert checker.check_result("round 0", {0: 2}, {0: 2})
        assert not checker.check_result("round 1", {0: 2}, {0: 3})
        assert any("silent wrong answer" in v for v in checker.violations)
        with pytest.raises(AssertionError):
            checker.raise_if_violated()

    def test_allocator_divergence_is_detected(self):
        dep = build_rack(2, 1, seed=1)
        checker = InvariantChecker(dep)
        dep.switches[0].flow_state._next_slot -= 1   # simulate rollback
        checker.observe()
        assert any("backwards" in v for v in checker.violations)
