"""End-to-end cache eviction tests (periodic counting-LRU, §5.2.2)."""

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

# Windows scaled so several cache-update cycles fit inside a short run.
CAL = scaled(cache_update_window_s=25e-6)


def make_app(dep, value_slots, policy="netrpc"):
    reduce_prog = RIPProgram(app_name="EV", add_to_field="r.kvs",
                             cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    query_prog = RIPProgram(app_name="EV", get_field="q.kvs",
                            cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    return dep.controller.register(
        [reduce_prog, query_prog], server="s0", clients=["c0"],
        value_slots=value_slots, cache_policy=policy)


def push(dep, config, items, limit=30.0):
    done = dep.client_agent(0).submit(
        Task(app=config, items=items, expect_result=False))
    return dep.sim.run_until(done, limit=dep.sim.now + limit)


class TestEvictionLifecycle:
    def test_hot_keys_displace_cold_ones(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, _ = make_app(dep, value_slots=8)
        server_state = dep.server_agent(0).app_state("EV")
        # Fill the cache with cold keys.
        push(dep, reduce_cfg, [(f"cold-{i}", 1) for i in range(8)])
        dep.sim.run(until=dep.sim.now + 1e-4)
        assert len(server_state.mm.mapped_logicals()) == 8
        # Hammer hot keys for several windows.
        for _ in range(30):
            push(dep, reduce_cfg, [(f"hot-{i}", 1) for i in range(4)])
            dep.sim.run(until=dep.sim.now + 3e-5)
        assert server_state.mm.stats["evictions"] > 0
        from repro.inc.addressing import logical_address
        hot_mapped = sum(
            1 for i in range(4)
            if server_state.mm.lookup(logical_address(f"hot-{i}"))
            is not None)
        assert hot_mapped >= 2  # the hot set took over cache slots

    def test_values_survive_eviction_exactly(self):
        """Evicted register values merge into the server's software map."""
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = make_app(dep, value_slots=4)
        totals = {}
        # More keys than slots, several passes: constant eviction churn.
        for repeat in range(6):
            for key_index in range(12):
                key = f"k{key_index}"
                push(dep, reduce_cfg, [(key, key_index + 1)])
                totals[key] = totals.get(key, 0) + key_index + 1
            dep.sim.run(until=dep.sim.now + 5e-5)
        dep.sim.run(until=dep.sim.now + 2e-4)
        done = dep.client_agent(0).submit(
            Task(app=query_cfg, items=[(k, 0) for k in totals],
                 expect_result=True))
        result = dep.sim.run_until(done, limit=dep.sim.now + 30.0)
        assert result.values == totals

    def test_revocations_reach_the_client(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, _ = make_app(dep, value_slots=4)
        agent_state = dep.client_agent(0).app_state("EV")
        push(dep, reduce_cfg, [(f"a-{i}", 1) for i in range(4)])
        dep.sim.run(until=dep.sim.now + 1e-4)
        granted_before = dict(agent_state.grants)
        assert granted_before
        # Displace with a hotter set.
        for _ in range(20):
            push(dep, reduce_cfg, [(f"b-{i}", 1) for i in range(4)])
            dep.sim.run(until=dep.sim.now + 3e-5)
        # At least one original grant was revoked at the client.
        assert any(logical not in agent_state.grants
                   for logical in granted_before)

    def test_fcfs_policy_never_evicts(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, _ = make_app(dep, value_slots=4, policy="fcfs")
        server_state = dep.server_agent(0).app_state("EV")
        push(dep, reduce_cfg, [(f"cold-{i}", 1) for i in range(4)])
        for _ in range(15):
            push(dep, reduce_cfg, [(f"hot-{i}", 5) for i in range(4)])
            dep.sim.run(until=dep.sim.now + 3e-5)
        assert server_state.mm.stats["evictions"] == 0
