"""Tests for the deployment builders."""

import pytest

from repro.control import build_chain, build_rack
from repro.netsim import scaled

CAL = scaled()


class TestRack:
    def test_names_and_counts(self):
        dep = build_rack(3, 2, cal=CAL)
        assert dep.client_names == ["c0", "c1", "c2"]
        assert [h.name for h in dep.servers] == ["s0", "s1"]
        assert len(dep.switches) == 1

    def test_agents_attached(self):
        dep = build_rack(2, 1, cal=CAL)
        assert set(dep.client_agents) == {"c0", "c1"}
        assert set(dep.server_agents) == {"s0"}
        assert dep.client_agent(1).host.name == "c1"
        assert dep.server_agent().host.name == "s0"

    def test_all_hosts_linked_to_switch(self):
        dep = build_rack(2, 1, cal=CAL)
        for host in dep.clients + dep.servers:
            assert "sw0" in host.egress

    def test_seed_controls_rng(self):
        a = build_rack(1, 1, cal=CAL, seed=5).sim.rng.random()
        b = build_rack(1, 1, cal=CAL, seed=5).sim.rng.random()
        assert a == b


class TestDumbbell:
    """The paper's testbed: a two-switch chain, clients on sw0."""

    def test_two_switches_with_routes(self):
        dep = build_chain(2, 2, 1, cal=CAL)
        assert len(dep.switches) == 2
        # Cross-side routes installed.
        assert dep.switches[0].next_hop_for("s0") == "sw1"
        assert dep.switches[1].next_hop_for("c0") == "sw0"

    def test_phys_bases_partition_address_space(self):
        dep = build_chain(2, 1, 1, cal=CAL)
        sw0, sw1 = dep.switches
        assert sw0.phys_base == 0
        assert sw1.phys_base == sw0.registers.capacity
        assert sw0.owns(0) and not sw1.owns(0)
        assert sw1.owns(sw0.registers.capacity)


class TestChain:
    def test_single_switch_chain(self):
        dep = build_chain(1, 2, 1, cal=CAL)
        assert len(dep.switches) == 1
        assert "sw0" in dep.clients[0].egress

    def test_three_switch_routing(self):
        dep = build_chain(3, 1, 1, cal=CAL)
        # Client at the head, server at the tail.
        assert dep.switches[0].next_hop_for("s0") == "sw1"
        assert dep.switches[1].next_hop_for("s0") == "sw2"
        assert dep.switches[2].next_hop_for("c0") == "sw1"
        assert dep.switches[1].next_hop_for("c0") == "sw0"

    def test_zero_switches_rejected(self):
        with pytest.raises(ValueError):
            build_chain(0, 1, 1, cal=CAL)

    def test_controller_pool_spans_chain(self):
        dep = build_chain(3, 1, 1, cal=CAL)
        per_switch = dep.switches[0].registers.capacity
        assert dep.controller.pool.total == 3 * per_switch
