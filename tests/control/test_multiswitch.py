"""Tests for multi-switch deployments (paper §6.6: chained pipelines)."""

import pytest

from repro.control import build_chain
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

CAL = scaled()


def async_programs(name="MR"):
    reduce_prog = RIPProgram(app_name=name, add_to_field="r.kvs",
                             cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    query_prog = RIPProgram(app_name=name, get_field="q.kvs",
                            cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    return reduce_prog, query_prog


class TestDumbbell:
    """The paper's testbed: a two-switch chain, clients on sw0."""

    def test_aggregation_across_the_dumbbell(self):
        dep = build_chain(2, 2, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            list(async_programs()), server="s0", clients=["c0", "c1"],
            value_slots=1024)
        for index in range(2):
            done = dep.client_agent(index).submit(
                Task(app=reduce_cfg, items=[("k", 5)], expect_result=False))
            dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.05)
        done = dep.client_agent(0).submit(
            Task(app=query_cfg, items=[("k", 0)], expect_result=True))
        result = dep.sim.run_until(done, limit=5.0)
        assert result.values["k"] == 10

    def test_memory_pool_spans_both_switches(self):
        dep = build_chain(2, 1, 1, cal=CAL)
        per_switch = dep.switches[0].registers.capacity
        assert dep.controller.pool.total == 2 * per_switch


class TestChain:
    def test_keys_land_on_both_switches(self):
        """A region spanning the switch boundary still aggregates exactly."""
        dep = build_chain(2, 1, 1, cal=CAL)
        per_switch = dep.switches[0].registers.capacity
        # Reserve a region straddling the boundary: consume most of sw0.
        filler = RIPProgram(app_name="FILL", add_to_field="x.kvs",
                            cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        dep.controller.register([filler], server="s0", clients=["c0"],
                                value_slots=per_switch - 32)
        reduce_cfg, query_cfg = dep.controller.register(
            list(async_programs()), server="s0", clients=["c0"],
            value_slots=1024)
        region = reduce_cfg.value_region
        assert region.base < per_switch < region.base + region.size

        agent = dep.client_agent(0)
        keys = [f"key-{i}" for i in range(64)]
        done = agent.submit(Task(app=reduce_cfg,
                                 items=[(k, 3) for k in keys],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.1)
        done = agent.submit(Task(app=reduce_cfg,
                                 items=[(k, 4) for k in keys],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.1)

        done = agent.submit(Task(app=query_cfg,
                                 items=[(k, 0) for k in keys],
                                 expect_result=True))
        result = dep.sim.run_until(done, limit=5.0)
        assert all(result.values[k] == 7 for k in keys)
        # Registers on both switches actually hold data.
        server_state = dep.server_agent(0).app_state("MR")
        mapped = [server_state.mm.lookup(l)
                  for l in server_state.mm.mapped_logicals()]
        sides = {phys >= per_switch for phys in mapped}
        assert sides == {True, False}

    def test_counters_always_on_edge_switch(self):
        dep = build_chain(2, 1, 1, cal=CAL)
        prog = RIPProgram(
            app_name="V", get_field="v.kvs", add_to_field="v.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=1))
        (config,) = dep.controller.register(
            [prog], server="s0", clients=["c0"], value_slots=64,
            counter_slots=64, linear=True)
        per_switch = dep.switches[0].registers.capacity
        assert config.counter_region.base >= per_switch

    def test_threshold_multicast_across_the_chain(self):
        # The edge switch (sw1) fires the threshold multicast; both group
        # members sit behind sw0, so each gets its own copy addressed to
        # it, which sw0 routes on (only directly attached members share
        # one group packet).
        dep = build_chain(2, 2, 1, cal=CAL)
        prog = RIPProgram(
            app_name="V", get_field="v.kvs", add_to_field="v.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2))
        (config,) = dep.controller.register(
            [prog], server="s0", clients=["c0", "c1"], value_slots=64,
            counter_slots=64, linear=True)
        results = {}
        for agent in dep.client_agents.values():
            handler = agent.host._handler

            def spy(pkt, _handler=handler, _name=agent.host.name):
                if pkt.is_mcast:
                    results.setdefault(_name, []).append(pkt)
                _handler(pkt)

            agent.host.set_handler(spy)
        done = [dep.client_agent(index).submit(
            Task(app=config, items=[(0, 1 + index), (1, 10 * (index + 1))],
                 expect_result=True)) for index in range(2)]
        for event in done:
            assert dep.sim.run_until(event, limit=5.0).column == [3, 30]
        (c0,), (c1,) = results["c0"], results["c1"]
        assert c0 is not c1
        assert (c0.dst, c1.dst) == ("c0", "c1")
        assert list(c0.kv.values) == list(c1.kv.values) == [3, 30]
