"""End-to-end overflow handling tests (paper §5.2.1, Figure 11).

The switch clamps to a sentinel, hosts give up the result, clients
replay raw chunks through the server, and the server computes the exact
answer in 64-bit software.
"""

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import (
    INT32_MAX,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
    StreamOp,
)

CAL = scaled()
BIG = INT32_MAX - 10   # two of these always overflow int32


def sync_program(n_clients, clear=ClearPolicy.COPY):
    return RIPProgram(
        app_name="DT", get_field="r.t", add_to_field="q.t", clear=clear,
        cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=n_clients))


def run_sync_round(dep, config, arrays, round_no=0, limit=10.0):
    if isinstance(config, list):
        config = config[0]
    events = []
    for index, array in enumerate(arrays):
        task = Task(app=config, round=round_no,
                    items=[(i, v) for i, v in enumerate(array)],
                    expect_result=True)
        events.append(dep.client_agent(index).submit(task))
    return [dep.sim.run_until(e, limit=limit) for e in events]


@pytest.mark.parametrize("clear", [ClearPolicy.COPY, ClearPolicy.SHADOW,
                                   ClearPolicy.LAZY])
class TestSyncOverflowRecovery:
    def test_overflowed_chunk_corrected_in_software(self, clear):
        dep = build_rack(2, 1, cal=CAL)
        (config,) = dep.controller.register(
            [sync_program(2, clear)], server="s0", clients=["c0", "c1"],
            value_slots=2048, counter_slots=512, linear=True)
        a = [BIG] + [1] * 31
        b = [BIG] + [2] * 31
        results = run_sync_round(dep, config, [a, b])
        for result in results:
            assert result.values[0] == 2 * BIG        # exact 64-bit sum
            assert result.values[1] == 3
            assert result.overflow_chunks == 1

    def test_clean_chunks_unaffected_by_overflowed_sibling(self, clear):
        dep = build_rack(2, 1, cal=CAL)
        (config,) = dep.controller.register(
            [sync_program(2, clear)], server="s0", clients=["c0", "c1"],
            value_slots=2048, counter_slots=512, linear=True)
        # Chunk 0 overflows; chunk 1 (indices 32..63) is clean.
        a = [BIG] * 32 + [5] * 32
        b = [BIG] * 32 + [6] * 32
        results = run_sync_round(dep, [config], [a, b])
        for result in results:
            assert result.values[0] == 2 * BIG
            assert result.values[32] == 11
            assert result.overflow_chunks == 1

    def test_rounds_after_overflow_recover(self, clear):
        dep = build_rack(2, 1, cal=CAL)
        (config,) = dep.controller.register(
            [sync_program(2, clear)], server="s0", clients=["c0", "c1"],
            value_slots=2048, counter_slots=512, linear=True)
        run_sync_round(dep, [config], [[BIG] * 32, [BIG] * 32], round_no=0)
        results = run_sync_round(dep, [config], [[3] * 32, [4] * 32],
                                 round_no=1)
        for result in results:
            assert result.values[0] == 7


class TestAsyncOverflow:
    def test_accumulator_overflow_falls_back_exactly(self):
        reduce_prog = RIPProgram(
            app_name="MR", add_to_field="r.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        query_prog = RIPProgram(
            app_name="MR", get_field="q.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=1024)
        agent = dep.client_agent(0)

        def push(value):
            done = agent.submit(Task(app=reduce_cfg, items=[("k", value)],
                                     expect_result=False))
            return dep.sim.run_until(done, limit=10.0)

        push(BIG)                       # maps the key, near-max register
        dep.sim.run(until=dep.sim.now + 0.05)
        result = push(BIG)              # overflows the register
        assert result.overflow_chunks == 1
        dep.sim.run(until=dep.sim.now + 0.05)
        query = agent.submit(Task(app=query_cfg, items=[("k", 0)],
                                  expect_result=True))
        qr = dep.sim.run_until(query, limit=10.0)
        assert qr.values["k"] == 2 * BIG

    def test_replay_applies_only_the_slots_the_switch_did_not(self):
        # One chunk, two mapped keys: the switch applies "a" and refuses
        # "big" (its register overflows).  The replay must add "big"
        # alone; adding "a" again read it as 3.
        reduce_prog = RIPProgram(
            app_name="MR", add_to_field="r.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        query_prog = RIPProgram(
            app_name="MR", get_field="q.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=64)
        agent = dep.client_agent(0)

        def submit(config, items, expect_result):
            done = agent.submit(Task(app=config, items=items,
                                     expect_result=expect_result))
            result = dep.sim.run_until(done, limit=10.0)
            dep.sim.run(until=dep.sim.now + 0.05)
            return result

        big = INT32_MAX - 10
        submit(reduce_cfg, [("a", 1), ("big", big)], False)
        pushed = submit(reduce_cfg, [("a", 1), ("big", 100)], False)
        assert pushed.mapped_pairs == 2 and pushed.overflow_chunks == 1
        result = submit(query_cfg, [("a", 0), ("big", 0)], True)
        assert result.values == {"a": 2, "big": big + 100}
        # The query's chunk overflowed too (the sticky register), and
        # its replay still answered both slots.
        assert result.overflow_chunks == 1

    def test_an_applied_slot_reading_int32_max_is_not_replayed(self):
        # "a" is applied with exactly INT32_MAX in the chunk where "big"
        # overflows, so its slot reads like the overflow mark.  The
        # switch's mask, not the value, says which slot it refused:
        # reading values replayed "a" as well (4,294,967,289).
        reduce_prog = RIPProgram(
            app_name="MR", add_to_field="r.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        query_prog = RIPProgram(
            app_name="MR", get_field="q.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=64)
        agent = dep.client_agent(0)

        def submit(config, items, expect_result):
            done = agent.submit(Task(app=config, items=items,
                                     expect_result=expect_result))
            result = dep.sim.run_until(done, limit=10.0)
            dep.sim.run(until=dep.sim.now + 0.05)
            return result

        big = INT32_MAX - 10
        submit(reduce_cfg, [("a", -5), ("big", big)], False)
        pushed = submit(reduce_cfg, [("a", INT32_MAX), ("big", 100)], False)
        assert pushed.mapped_pairs == 2 and pushed.overflow_chunks == 1
        result = submit(query_cfg, [("a", 0), ("big", 0)], True)
        assert result.values == {"a": INT32_MAX - 5, "big": big + 100}

    def test_modify_applies_once_on_the_software_paths(self):
        # Stream.modify "add:1" on a keyed add.  The first push maps both
        # keys from the server's software path, which folds them into
        # their fresh registers; the second overflows "big", whose slot
        # the client replays raw.  Both paths must add modified values,
        # exactly as the switch does: a = 2 + 2, big = (BIG + 1) + 101.
        reduce_prog = RIPProgram(
            app_name="MR", add_to_field="r.kvs",
            modify_op=StreamOp.ADD, modify_para=1,
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        query_prog = RIPProgram(
            app_name="MR", get_field="q.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=64)
        agent = dep.client_agent(0)

        def submit(config, items, expect_result):
            done = agent.submit(Task(app=config, items=items,
                                     expect_result=expect_result))
            result = dep.sim.run_until(done, limit=10.0)
            dep.sim.run(until=dep.sim.now + 0.05)
            return result

        big = INT32_MAX - 10
        first = submit(reduce_cfg, [("a", 1), ("big", big)], False)
        assert first.fallback_pairs == 2
        assert dep.server_agent(0).stats["replays"] == 1
        pushed = submit(reduce_cfg, [("a", 1), ("big", 100)], False)
        assert pushed.mapped_pairs == 2 and pushed.overflow_chunks == 1
        result = submit(query_cfg, [("a", 0), ("big", 0)], True)
        assert result.values == {"a": 4, "big": 2**31 + 91}

    def test_an_overflow_forwarded_to_the_server_is_replayed(self):
        # A program whose result goes to the server: the overflowed push
        # reaches it marked, and an ACK there dropped the refused slot
        # (the query read BIG).  Answered like a bounce, it is replayed.
        reduce_prog = RIPProgram(
            app_name="MR", add_to_field="r.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SERVER, threshold=0))
        query_prog = RIPProgram(
            app_name="MR", get_field="q.kvs",
            cntfwd=CntFwdSpec(target=ForwardTarget.SRC, threshold=0))
        dep = build_rack(1, 1, cal=CAL)
        reduce_cfg, query_cfg = dep.controller.register(
            [reduce_prog, query_prog], server="s0", clients=["c0"],
            value_slots=64)
        agent = dep.client_agent(0)

        def submit(config, items, expect_result):
            done = agent.submit(Task(app=config, items=items,
                                     expect_result=expect_result))
            result = dep.sim.run_until(done, limit=10.0)
            dep.sim.run(until=dep.sim.now + 0.05)
            return result

        submit(reduce_cfg, [("k", BIG)], False)
        pushed = submit(reduce_cfg, [("k", BIG)], False)
        assert pushed.mapped_pairs == 1 and pushed.overflow_chunks == 1
        result = submit(query_cfg, [("k", 0)], True)
        assert result.values == {"k": 2 * BIG}

    def test_quantizer_precheck_catches_oversized_floats(self):
        from repro.protocol import Quantizer
        q = Quantizer(8)
        fixed, overflowed = q.encode(123456.0)
        assert overflowed  # the RPC layer routes these via the server
