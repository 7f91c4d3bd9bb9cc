"""Application lifecycle: start, stop, memory reuse, no switch reboot."""

import pytest

from repro.control import MemoryPool, build_rack
from repro.inc import MemoryRegion, Task
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

CAL = scaled()


def reduce_prog(name):
    return RIPProgram(app_name=name, add_to_field="r.kvs",
                      cntfwd=CntFwdSpec(target=ForwardTarget.SRC))


class TestMemoryPoolRelease:
    def test_released_region_is_reused(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        first = pool.reserve_values(400)
        pool.release(first)
        again = pool.reserve_values(400)
        assert again.base == first.base

    def test_best_fit_splits_larger_region(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        big = pool.reserve_values(600)
        pool.release(big)
        small = pool.reserve_values(200)
        assert small.base == big.base
        rest = pool.reserve_values(400)
        assert rest.base == big.base + 200

    def test_free_values_counts_released(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        region = pool.reserve_values(1000)
        assert pool.free_values == 0
        pool.release(region)
        assert pool.free_values == 1000

    def test_zero_size_release_ignored(self):
        pool = MemoryPool(total=100, edge_base=0, edge_capacity=100)
        pool.release(MemoryRegion(0, 0))
        assert pool.free_values == 100

    def test_counter_release_reused(self):
        pool = MemoryPool(total=1000, edge_base=0, edge_capacity=1000)
        counters = pool.reserve_counters(100)
        pool.release(counters, counters=True)
        again = pool.reserve_counters(100)
        assert again.base == counters.base


class TestDeregistrationLifecycle:
    def test_dereg_frees_memory_for_new_apps(self):
        dep = build_rack(1, 1, cal=CAL)
        capacity = dep.switches[0].registers.capacity
        dep.controller.register([reduce_prog("BIG")], server="s0",
                                clients=["c0"], value_slots=capacity)
        # Pool exhausted: a newcomer degrades to software.
        (late,) = dep.controller.register([reduce_prog("LATE")],
                                          server="s0", clients=["c0"],
                                          value_slots=1024)
        assert not late.has_switch
        # Stop the hog; the next registration gets switch memory again.
        dep.controller.deregister("BIG")
        (fresh,) = dep.controller.register([reduce_prog("FRESH")],
                                           server="s0", clients=["c0"],
                                           value_slots=1024)
        assert fresh.has_switch

    def test_surviving_app_unaffected_by_sibling_dereg(self):
        dep = build_rack(1, 1, cal=CAL)
        (keep,) = dep.controller.register([reduce_prog("KEEP")],
                                          server="s0", clients=["c0"],
                                          value_slots=1024)
        dep.controller.register([reduce_prog("DROP")], server="s0",
                                clients=["c0"], value_slots=1024)
        agent = dep.client_agent(0)
        done = agent.submit(Task(app=keep, items=[("k", 5)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.controller.deregister("DROP")
        done = agent.submit(Task(app=keep, items=[("k", 5)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=dep.sim.now + 5.0)
        snapshot = dep.server_agent(0).app_state("KEEP")
        total = snapshot.soft.get("k")
        if len(snapshot.mm.mapped_logicals()):
            from repro.inc.addressing import logical_address
            phys = snapshot.mm.lookup(logical_address("k"))
            if phys is not None:
                total += dep.switches[0].ctrl_read([phys])[0][1]
        assert total == 10

    def test_switch_never_restarts_across_lifecycle(self):
        """The same switch object (and its registers) serves all epochs."""
        dep = build_rack(1, 1, cal=CAL)
        switch = dep.switches[0]
        before = switch.stats["rx_pkts"]
        for epoch in range(3):
            name = f"APP-{epoch}"
            (config,) = dep.controller.register(
                [reduce_prog(name)], server="s0", clients=["c0"],
                value_slots=512)
            done = dep.client_agent(0).submit(
                Task(app=config, items=[(f"k{epoch}", 1)],
                     expect_result=False))
            dep.sim.run_until(done, limit=dep.sim.now + 5.0)
            dep.controller.deregister(name)
        assert dep.switches[0] is switch
        assert switch.stats["rx_pkts"] > before
