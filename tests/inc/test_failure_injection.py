"""Failure-injection tests: bursts, extreme loss, duplicate delivery.

The reliability claims (§5.1) must hold under adversarial conditions,
not just light random loss.
"""

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.netsim import BurstLoss, RandomLoss, ScriptedLoss, scaled
from repro.protocol import ClearPolicy, CntFwdSpec, ForwardTarget, RIPProgram

CAL = scaled()


def sync_program(n_clients, clear=ClearPolicy.COPY):
    return RIPProgram(
        app_name="DT", get_field="r.t", add_to_field="q.t", clear=clear,
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=n_clients))


def run_round(dep, config, arrays, round_no=0, limit=60.0):
    events = []
    for index, array in enumerate(arrays):
        task = Task(app=config, round=round_no,
                    items=list(enumerate(array)), expect_result=True)
        events.append(dep.client_agent(index).submit(task))
    return [dep.sim.run_until(e, limit=dep.sim.now + limit) for e in events]


class TestBurstLoss:
    def test_sync_exact_under_bursty_loss(self):
        dep = build_rack(2, 1, cal=CAL, seed=13,
                         loss_factory=lambda: BurstLoss(0.002, 0.3))
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=8192, counter_slots=1024, linear=True)
        a, b = [3] * 256, [4] * 256
        results = run_round(dep, config, [a, b])
        for result in results:
            assert all(result.values[i] == 7 for i in range(256))


class TestHighLoss:
    @pytest.mark.parametrize("rate", [0.05, 0.15])
    def test_sync_survives_heavy_random_loss(self, rate):
        dep = build_rack(2, 1, cal=CAL, seed=17,
                         loss_factory=lambda: RandomLoss(rate))
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=8192, counter_slots=1024, linear=True)
        results = run_round(dep, config, [[1] * 128, [2] * 128],
                            limit=120.0)
        for result in results:
            assert all(result.values[i] == 3 for i in range(128))


class TestDeterministicDrops:
    def test_single_critical_drop_recovers(self):
        """Drop the very first packet on every link once."""
        dep = build_rack(2, 1, cal=CAL, seed=1,
                         loss_factory=lambda: ScriptedLoss([0]))
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=512, linear=True)
        results = run_round(dep, config, [[5] * 32, [6] * 32])
        for result in results:
            assert result.values[0] == 11

    def test_lost_return_stream_recovered(self):
        """Drop early server->switch packets: the clearing returns."""
        dep = build_rack(2, 1, cal=CAL, seed=1)
        # Inject loss only on the server's uplink.
        dep.topology.links[("s0", "sw0")].loss = ScriptedLoss([0, 1, 2])
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=512, linear=True)
        results = run_round(dep, config, [[5] * 64, [6] * 64])
        for result in results:
            assert all(result.values[i] == 11 for i in range(64))

    def test_multiple_rounds_after_disturbance(self):
        dep = build_rack(2, 1, cal=CAL, seed=2,
                         loss_factory=lambda: ScriptedLoss(range(0, 20, 3)))
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=512, linear=True)
        for round_no in range(3):
            results = run_round(dep, config,
                                [[round_no] * 32, [10] * 32],
                                round_no=round_no)
            for result in results:
                assert result.values[0] == round_no + 10


class TestIdempotenceUnderDuplication:
    def test_agent_level_duplicate_delivery(self):
        """Deliver every client data packet twice at the switch."""
        dep = build_rack(2, 1, cal=CAL, seed=3)
        switch = dep.switches[0]
        original_receive = switch.receive

        def duplicating_receive(packet):
            original_receive(packet)
            from repro.protocol import Packet
            if isinstance(packet, Packet) and not packet.is_ack and \
                    not packet.is_sa and packet.srrt >= 0:
                original_receive(packet.copy())

        switch.receive = duplicating_receive
        (config,) = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=512, linear=True)
        results = run_round(dep, config, [[5] * 64, [6] * 64])
        for result in results:
            # The flip-bit check must absorb every duplicate exactly.
            assert all(result.values[i] == 11 for i in range(64))
