"""End-to-end INC layer tests: agents + switch + controller together.

Each test drives real packets through the simulated dataplane and
checks application-level correctness (exact aggregation results,
mutual exclusion, sub-RTT reads) under the four INC application types
of Table 1.
"""

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.netsim import RandomLoss, scaled
from repro.protocol import (
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
    RetryMode,
)


CAL = scaled()


def run_task(dep, agent, task, limit=5.0):
    done = agent.submit(task)
    return dep.sim.run_until(done, limit=limit)


# ---------------------------------------------------------------------------
# AsyncAgtr: MapReduce-style keyed aggregation
# ---------------------------------------------------------------------------
def async_programs():
    reduce_prog = RIPProgram(
        app_name="MR", add_to_field="ReduceRequest.kvs",
        cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
    query_prog = RIPProgram(
        app_name="MR", get_field="QueryReply.kvs",
        cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
    return reduce_prog, query_prog


class TestAsyncAggregation:
    def test_first_use_goes_to_server_and_gets_grant(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_prog, _ = async_programs()
        (reduce_cfg,) = dep.controller.register(
            [reduce_prog], server="s0", clients=["c0"], value_slots=1024)
        agent = dep.client_agent(0)
        result = run_task(dep, agent, Task(
            app=reduce_cfg, items=[("apple", 3), ("pear", 4)],
            expect_result=False))
        # First use: both keys unmapped -> server software path.
        assert result.fallback_pairs == 2
        assert result.mapped_pairs == 0
        server_state = dep.server_agent(0).app_state("MR")
        # Values were granted mappings and migrated onto the switch.
        dep.sim.run(until=dep.sim.now + 2 * CAL.ctrl_rtt_s)
        assert len(server_state.mm.mapped_logicals()) == 2

    def test_second_task_uses_switch_path(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_prog, _ = async_programs()
        (reduce_cfg,) = dep.controller.register(
            [reduce_prog], server="s0", clients=["c0"], value_slots=1024)
        agent = dep.client_agent(0)
        run_task(dep, agent, Task(app=reduce_cfg,
                                  items=[("apple", 3)], expect_result=False))
        result = run_task(dep, agent, Task(
            app=reduce_cfg, items=[("apple", 5)], expect_result=False))
        assert result.mapped_pairs == 1
        assert result.fallback_pairs == 0

    def test_aggregate_is_exact_across_paths(self):
        """Adds split between software and switch must total exactly."""
        dep = build_rack(2, 1, cal=CAL)
        reduce_prog, query_prog = async_programs()
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0", "c1"],
            value_slots=1024)
        a0, a1 = dep.client_agent(0), dep.client_agent(1)
        for repeat in range(3):
            run_task(dep, a0, Task(app=reduce_cfg,
                                   items=[("apple", 1), ("pear", 10)],
                                   expect_result=False))
            run_task(dep, a1, Task(app=reduce_cfg,
                                   items=[("apple", 2)],
                                   expect_result=False))
        dep.sim.run(until=dep.sim.now + 0.05)  # let replays settle
        result = run_task(dep, a0, Task(
            app=query_cfg, items=[("apple", 0), ("pear", 0)],
            expect_result=True))
        assert result.values["apple"] == 9   # 3*(1+2)
        assert result.values["pear"] == 30   # 3*10

    def test_query_of_mapped_key_is_sub_rtt(self):
        """A granted key's read bounces at the switch: server untouched."""
        dep = build_rack(1, 1, cal=CAL)
        reduce_prog, query_prog = async_programs()
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=1024)
        agent = dep.client_agent(0)
        run_task(dep, agent, Task(app=reduce_cfg, items=[("k", 7)],
                                  expect_result=False))
        dep.sim.run(until=dep.sim.now + 0.05)
        before = dep.server_agent(0).stats["data_rx"]
        result = run_task(dep, agent, Task(
            app=query_cfg, items=[("k", 0)], expect_result=True))
        assert result.values["k"] == 7
        assert dep.server_agent(0).stats["data_rx"] == before
        assert dep.switches[0].stats["bounced_pkts"] >= 1

    def test_collision_keys_fall_back_forever(self):
        dep = build_rack(1, 1, cal=CAL)
        reduce_prog, query_prog = async_programs()
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=1024)
        agent = dep.client_agent(0)
        state = agent.app_state("MR")
        # Force a collision: claim key "first" then make "second" collide.
        logical = state.space.resolve("first")
        state.space._owner[logical] = "first"
        state.space._collided.add("second")
        run_task(dep, agent, Task(app=reduce_cfg,
                                  items=[("second", 5)],
                                  expect_result=False))
        dep.sim.run(until=dep.sim.now + 0.05)
        result = run_task(dep, agent, Task(
            app=query_cfg, items=[("second", 0)], expect_result=True))
        assert result.values["second"] == 5


# ---------------------------------------------------------------------------
# SyncAgtr: gradient-style synchronous aggregation
# ---------------------------------------------------------------------------
def sync_program(n_clients, clear=ClearPolicy.COPY):
    return RIPProgram(
        app_name="DT", precision=0,
        get_field="AgtrGrad.tensor", add_to_field="NewGrad.tensor",
        clear=clear,
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=n_clients,
                          key="ClientID"))


def run_sync_round(dep, configs, arrays, round_no=0, limit=5.0):
    events = []
    for agent_index, array in enumerate(arrays):
        agent = dep.client_agent(agent_index)
        task = Task(app=configs[0], round=round_no,
                    items=[(i, v) for i, v in enumerate(array)],
                    expect_result=True)
        events.append(agent.submit(task))
    results = []
    for event in events:
        results.append(dep.sim.run_until(event, limit=limit))
    return results


@pytest.mark.parametrize("clear", [ClearPolicy.COPY, ClearPolicy.SHADOW,
                                   ClearPolicy.LAZY])
class TestSyncAggregation:
    def test_two_clients_aggregate_exactly(self, clear):
        dep = build_rack(2, 1, cal=CAL)
        configs = dep.controller.register(
            [sync_program(2, clear)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=1024, linear=True)
        a = [1, 2, 3, 4] * 16   # 64 values = 2 chunks
        b = [10, 20, 30, 40] * 16
        results = run_sync_round(dep, configs, [a, b])
        expected = [x + y for x, y in zip(a, b)]
        for result in results:
            got = [result.values[i] for i in range(len(a))]
            assert got == expected

    def test_multiple_rounds_reuse_memory(self, clear):
        dep = build_rack(2, 1, cal=CAL)
        configs = dep.controller.register(
            [sync_program(2, clear)], server="s0", clients=["c0", "c1"],
            value_slots=4096, counter_slots=1024, linear=True)
        for round_no in range(4):
            a = [round_no + 1] * 32
            b = [100] * 32
            results = run_sync_round(dep, configs, [a, b],
                                     round_no=round_no)
            for result in results:
                assert result.values[0] == round_no + 101
                assert result.values[31] == round_no + 101


class TestSyncServerRound:
    def test_copy_policy_delivers_round_to_server(self):
        dep = build_rack(2, 1, cal=CAL)
        configs = dep.controller.register(
            [sync_program(2, ClearPolicy.COPY)], server="s0",
            clients=["c0", "c1"], value_slots=4096, counter_slots=1024,
            linear=True)
        rounds = {}
        dep.server_agent(0).set_round_handler(
            "DT", lambda r, values: rounds.update({r: values}))
        a, b = [5] * 32, [7] * 32
        run_sync_round(dep, configs, [a, b])
        assert 0 in rounds
        assert rounds[0][0] == 12 and rounds[0][31] == 12


# ---------------------------------------------------------------------------
# Agreement: voting and locks
# ---------------------------------------------------------------------------
class TestVoting:
    def test_threshold_multicast_reaches_every_client(self):
        prog = RIPProgram(
            app_name="VOTE", get_field="v.kvs", add_to_field="v.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=3,
                              key="ballot"))
        dep = build_rack(3, 1, cal=CAL)
        configs = dep.controller.register(
            [prog], server="s0", clients=["c0", "c1", "c2"],
            value_slots=1024)
        # Round 0 completes through the server (unmapped ballot key) and
        # grants the mapping; round 1 then counts on the switch.
        for ballot_round, ballot in [(0, "ballot-0"), (1, "ballot-1")]:
            events = []
            for index in range(3):
                task = Task(app=configs[0], round=ballot_round,
                            items=[(ballot, 1)], expect_result=True)
                events.append(dep.client_agent(index).submit(task))
            results = [dep.sim.run_until(e, limit=5.0) for e in events]
            for result in results:
                assert result.values[ballot] == 3
            dep.sim.run(until=dep.sim.now + 0.05)

    def test_votes_via_software_path_also_reach_threshold(self):
        """With no switch memory, voting falls back to the server agent."""
        prog = RIPProgram(
            app_name="VOTE", get_field="v.kvs", add_to_field="v.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2,
                              key="ballot"))
        dep = build_rack(2, 1, cal=CAL)
        configs = dep.controller.register(
            [prog], server="s0", clients=["c0", "c1"], value_slots=0,
            software_only=True)
        assert not configs[0].has_switch
        events = []
        for index in range(2):
            task = Task(app=configs[0], round=0, items=[("b", 1)],
                        expect_result=True)
            events.append(dep.client_agent(index).submit(task))
        results = [dep.sim.run_until(e, limit=5.0) for e in events]
        for result in results:
            assert result.values["b"] == 2


class TestLock:
    def lock_program(self):
        return RIPProgram(
            app_name="LOCK",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=1,
                              key="LockRequest.kvs"),
            retry=RetryMode.FRESH)

    def test_first_requester_wins(self):
        dep = build_rack(2, 1, cal=CAL)
        configs = dep.controller.register(
            [self.lock_program()], server="s0", clients=["c0", "c1"],
            value_slots=1024)
        # Warm the mapping so the counter lives on the switch.
        run_task(dep, dep.client_agent(0),
                 Task(app=configs[0], round=0, items=[("L", 1)],
                      expect_result=False))
        dep.sim.run(until=dep.sim.now + 0.05)
        # c0 holds the lock now (count == 1).  c1's attempt must block.
        blocked = dep.client_agent(1).submit(
            Task(app=configs[0], round=1, items=[("L", 1)],
                 expect_result=False))
        dep.sim.run(until=dep.sim.now + 0.02)
        assert not blocked.triggered


# ---------------------------------------------------------------------------
# Reliability: loss injection
# ---------------------------------------------------------------------------
class TestReliabilityUnderLoss:
    def test_sync_aggregation_exact_under_loss(self):
        dep = build_rack(2, 1, cal=CAL, seed=7,
                         loss_factory=lambda: RandomLoss(0.05))
        configs = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=8192, counter_slots=1024, linear=True)
        a = list(range(128))
        b = list(range(128, 256))
        results = run_sync_round(dep, configs, [a, b], limit=30.0)
        expected = [x + y for x, y in zip(a, b)]
        for result in results:
            got = [result.values[i] for i in range(len(a))]
            assert got == expected

    def test_async_aggregation_exact_under_loss(self):
        dep = build_rack(1, 1, cal=CAL, seed=11,
                         loss_factory=lambda: RandomLoss(0.08))
        reduce_prog, query_prog = async_programs()
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=1024)
        agent = dep.client_agent(0)
        for _ in range(5):
            run_task(dep, agent, Task(app=reduce_cfg, items=[("k", 2)],
                                      expect_result=False), limit=30.0)
        dep.sim.run(until=dep.sim.now + 0.1)
        result = run_task(dep, agent, Task(app=query_cfg,
                                           items=[("k", 0)],
                                           expect_result=True), limit=30.0)
        assert result.values["k"] == 10

    def test_retransmissions_were_actually_exercised(self):
        dep = build_rack(2, 1, cal=CAL, seed=3,
                         loss_factory=lambda: RandomLoss(0.1))
        configs = dep.controller.register(
            [sync_program(2)], server="s0", clients=["c0", "c1"],
            value_slots=8192, counter_slots=1024, linear=True)
        run_sync_round(dep, configs, [[1] * 256, [2] * 256], limit=30.0)
        retx = sum(f.stats["retransmits"]
                   for f in dep.client_agent(0).app_state("DT").flows)
        assert retx > 0
        assert dep.switches[0].stats["retransmissions_detected"] > 0
