"""Tests for registration, memory reservation, and multi-app admission."""

import dataclasses

import pytest

from repro.control import Controller, MemoryPool, build_rack
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import (AggOp, ClearPolicy, CntFwdSpec, ForwardTarget,
                            RIPProgram)

CAL = scaled()


def reduce_prog(name="APP"):
    return RIPProgram(app_name=name, add_to_field="r.kvs",
                      cntfwd=CntFwdSpec(target=ForwardTarget.SRC))


class TestMemoryPool:
    def test_values_grow_from_bottom(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        r1 = pool.reserve_values(100)
        r2 = pool.reserve_values(100)
        assert r1.base == 0 and r2.base == 100

    def test_counters_grow_from_top_of_edge(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        c1 = pool.reserve_counters(50)
        c2 = pool.reserve_counters(50)
        assert c1.base == 950 and c2.base == 900

    def test_exhaustion_returns_none(self):
        pool = MemoryPool(total=100, edge_base=0, edge_capacity=100)
        assert pool.reserve_values(80) is not None
        assert pool.reserve_values(30) is None

    def test_values_and_counters_cannot_overlap(self):
        pool = MemoryPool(total=100, edge_base=0, edge_capacity=100)
        pool.reserve_values(60)
        assert pool.reserve_counters(50) is None
        assert pool.reserve_counters(40) is not None

    def test_two_switch_pool_counters_stay_on_edge(self):
        pool = MemoryPool(total=200, edge_base=100, edge_capacity=100)
        counters = pool.reserve_counters(50)
        assert counters.base >= 100  # on the edge switch


class TestRegistration:
    def test_register_returns_config_per_program(self):
        dep = build_rack(1, 1, cal=CAL)
        p1 = reduce_prog()
        p2 = RIPProgram(app_name="APP", get_field="q.kvs",
                        cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        configs = dep.controller.register([p1, p2], server="s0",
                                          clients=["c0"], value_slots=64)
        assert len(configs) == 2
        assert configs[0].gaid != configs[1].gaid
        # Methods of one app share switch memory.
        assert configs[0].value_region.base == configs[1].value_region.base

    def test_duplicate_app_name_rejected(self):
        dep = build_rack(1, 1, cal=CAL)
        dep.controller.register([reduce_prog()], server="s0",
                                clients=["c0"], value_slots=64)
        with pytest.raises(ValueError, match="already registered"):
            dep.controller.register([reduce_prog()], server="s0",
                                    clients=["c0"], value_slots=64)

    def test_mixed_app_names_rejected(self):
        dep = build_rack(1, 1, cal=CAL)
        with pytest.raises(ValueError, match="share"):
            dep.controller.register(
                [reduce_prog("A"), reduce_prog("B")], server="s0",
                clients=["c0"], value_slots=64)

    def test_lazy_clear_needs_linear_addressing(self):
        # Lazy reads subtract per-register baselines, which a key moving
        # between the software map and a register cannot carry.
        dep = build_rack(1, 1, cal=CAL)
        lazy = dataclasses.replace(reduce_prog(), clear=ClearPolicy.LAZY)
        with pytest.raises(ValueError, match="clear=lazy needs linear"):
            dep.controller.register([lazy], server="s0", clients=["c0"],
                                    value_slots=64)
        assert dep.controller.register([lazy], server="s0", clients=["c0"],
                                       value_slots=64, linear=True)

    def test_mixed_aggregation_ops_rejected(self):
        # One app has one software map and one register region, hence
        # one arithmetic: an fadd and an add program cannot share them.
        dep = build_rack(1, 1, cal=CAL)
        fadd = RIPProgram(app_name="APP", add_to_field="r.kvs",
                          agg=AggOp.FADD,
                          cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        with pytest.raises(ValueError, match="mixes aggregation ops add "
                                             "and fadd"):
            dep.controller.register([fadd, reduce_prog()], server="s0",
                                    clients=["c0"], value_slots=64)
        assert dep.controller.register(
            [fadd, dataclasses.replace(fadd, add_to_field=None,
                                       get_field="q.kvs")],
            server="s0", clients=["c0"], value_slots=64)

    def test_unknown_hosts_rejected(self):
        dep = build_rack(1, 1, cal=CAL)
        with pytest.raises(KeyError):
            dep.controller.register([reduce_prog()], server="ghost",
                                    clients=["c0"], value_slots=64)
        with pytest.raises(KeyError):
            dep.controller.register([reduce_prog()], server="s0",
                                    clients=["ghost"], value_slots=64)

    def test_memory_exhaustion_degrades_to_software(self):
        dep = build_rack(1, 1, cal=CAL)
        capacity = dep.switches[0].registers.capacity
        dep.controller.register([reduce_prog("BIG")], server="s0",
                                clients=["c0"], value_slots=capacity)
        (config,) = dep.controller.register(
            [reduce_prog("LATE")], server="s0", clients=["c0"],
            value_slots=1024)
        assert not config.has_switch  # FCFS: latecomer gets no switch

    def test_lookup_and_listing(self):
        dep = build_rack(1, 1, cal=CAL)
        dep.controller.register([reduce_prog("X")], server="s0",
                                clients=["c0"], value_slots=64)
        assert dep.controller.lookup("X").server == "s0"
        assert dep.controller.registered_apps() == ["X"]
        with pytest.raises(KeyError):
            dep.controller.lookup("Y")

    def test_deregister_removes_switch_entries(self):
        dep = build_rack(1, 1, cal=CAL)
        (config,) = dep.controller.register(
            [reduce_prog("X")], server="s0", clients=["c0"], value_slots=64)
        assert config.gaid in dep.switches[0].admission
        dep.controller.deregister("X")
        assert config.gaid not in dep.switches[0].admission

    def test_apps_start_without_switch_reboot(self):
        """Multi-app support: installing app B does not disturb app A."""
        dep = build_rack(1, 1, cal=CAL)
        (cfg_a,) = dep.controller.register(
            [reduce_prog("A")], server="s0", clients=["c0"], value_slots=64)
        agent = dep.client_agent(0)
        done = agent.submit(Task(app=cfg_a, items=[("k", 1)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        # Register a second app mid-flight; A's state must survive.
        (cfg_b,) = dep.controller.register(
            [reduce_prog("B")], server="s0", clients=["c0"], value_slots=64)
        done2 = agent.submit(Task(app=cfg_a, items=[("k", 2)],
                                  expect_result=False))
        dep.sim.run_until(done2, limit=5.0)
        server_state = dep.server_agent(0).app_state("A")
        total = server_state.soft.get("k")
        # Value may live in software or on the switch; either way nothing
        # was lost.
        if len(server_state.mm.mapped_logicals()):
            phys = server_state.mm.lookup(
                next(iter(server_state.mm.mapped_logicals())))
            total += dep.switches[0].ctrl_read([phys])[0][1]
        assert total == 3


class TestRegionIsolation:
    def test_two_apps_get_disjoint_regions(self):
        dep = build_rack(1, 1, cal=CAL)
        (a,) = dep.controller.register([reduce_prog("A")], server="s0",
                                       clients=["c0"], value_slots=128)
        (b,) = dep.controller.register([reduce_prog("B")], server="s0",
                                       clients=["c0"], value_slots=128)
        a_range = set(range(a.value_region.base,
                            a.value_region.base + a.value_region.size))
        b_range = set(range(b.value_region.base,
                            b.value_region.base + b.value_region.size))
        assert not a_range & b_range
