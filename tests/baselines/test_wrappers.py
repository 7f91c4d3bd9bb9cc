"""Tests for the ASK / software-INC baselines.

Both are NetRPC itself reconfigured at registration, as ``exp_micro``
builds them: ASK is the keyed reduce/query pair under the hash-addressed
cache policy, the pure-DPDK baseline the same pair in software-only mode.
"""

from repro.control import build_rack
from repro.experiments.common import async_programs
from repro.inc import Task
from repro.netsim import scaled

CAL = scaled()


def register(dep, **options):
    return dep.controller.register(async_programs("X"), server="s0",
                                   clients=["c0"], **options)


class TestAskWrapper:
    def test_ask_uses_hash_addressing(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, _query_cfg = register(dep, value_slots=65536,
                                          cache_policy="hash")
        assert reduce_cfg.cache_policy == "hash"
        assert reduce_cfg.has_switch

    def test_ask_aggregates_exactly(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = register(dep, value_slots=1024,
                                         cache_policy="hash")
        agent = dep.client_agent(0)
        for _ in range(3):
            done = agent.submit(Task(app=reduce_cfg, items=[("k", 4)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=dep.sim.now + 10.0)
            dep.sim.run(until=dep.sim.now + 0.01)
        done = agent.submit(Task(app=query_cfg, items=[("k", 0)],
                                 expect_result=True))
        result = dep.sim.run_until(done, limit=dep.sim.now + 10.0)
        assert result.values["k"] == 12

    def test_program_shapes(self):
        reduce_prog, query_prog = async_programs("X")
        assert reduce_prog.uses_add_to and not reduce_prog.uses_get
        assert query_prog.uses_get and not query_prog.uses_add_to


class TestSoftwareIncWrapper:
    def test_registers_without_switch(self):
        dep = build_rack(1, 1, cal=CAL)
        configs = register(dep, value_slots=0, software_only=True)
        assert all(not c.has_switch for c in configs)

    def test_software_results_exact(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = register(dep, value_slots=0,
                                         software_only=True)
        agent = dep.client_agent(0)
        done = agent.submit(Task(app=reduce_cfg,
                                 items=[("a", 1), ("b", 2)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=dep.sim.now + 10.0)
        done = agent.submit(Task(app=query_cfg,
                                 items=[("a", 0), ("b", 0)],
                                 expect_result=True))
        result = dep.sim.run_until(done, limit=dep.sim.now + 10.0)
        assert result.values == {"a": 1, "b": 2}
        # Everything took the server path.
        assert result.fallback_pairs == 2
