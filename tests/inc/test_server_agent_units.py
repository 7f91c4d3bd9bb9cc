"""Focused unit tests for server-agent internals."""

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.inc.server_agent import _payload_size
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

CAL = scaled()


class TestPayloadSize:
    def test_none_is_free(self):
        assert _payload_size(None) == 0

    def test_bytes_counted(self):
        assert _payload_size(b"x" * 40) == 40

    def test_tuple_sums_binary_parts(self):
        assert _payload_size(("rpc-reply", b"x" * 24)) == 24

    def test_tuple_without_bytes_has_floor(self):
        assert _payload_size(("marker", 123)) == 16

    def test_opaque_object_floor(self):
        assert _payload_size(object()) == 16


def make_app(dep, name="U"):
    reduce_prog = RIPProgram(app_name=name, add_to_field="r.kvs",
                             cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    (config,) = dep.controller.register([reduce_prog], server="s0",
                                        clients=["c0"], value_slots=256)
    return config


class TestServerDedup:
    def test_duplicate_data_packets_processed_once(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        agent = dep.client_agent(0)
        done = agent.submit(Task(app=config, items=[("k", 5)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.01)
        state = dep.server_agent(0).app_state("U")
        # Replay the identical wire packet at the server by hand.
        from repro.protocol import KVBlock, Packet
        replay = Packet(gaid=config.gaid, src="c0", dst="s0", seq=0,
                        flow_id=0, is_cross=True,
                        kv=KVBlock.from_columns([0], [5], keys=["k"]))
        replay.select_all_slots()
        before = dict(state.soft.snapshot())
        dep.server_agent(0)._on_packet(replay)
        dep.sim.run(until=dep.sim.now + 0.01)
        # Seen-set dedup: the value must not be double-counted.
        total = state.soft.get("k")
        if len(state.mm.mapped_logicals()):
            from repro.inc.addressing import logical_address
            phys = state.mm.lookup(logical_address("k"))
            if phys is not None:
                total += dep.switches[0].ctrl_read([phys])[0][1]
        assert total == 5

    def test_retrieve_then_expire_returns_data(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        agent = dep.client_agent(0)
        for value in (2, 3):
            done = agent.submit(Task(app=config, items=[("k", value)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=5.0)
            dep.sim.run(until=dep.sim.now + 0.01)
        server = dep.server_agent(0)
        server.retrieve_app("U")
        saved = server.expire_app("U")
        assert saved.get("k") == 5
        # Unknown apps are no-ops.
        assert server.retrieve_app("missing") == 0
        assert server.expire_app("missing") == {}


class TestDivertedPackets:
    def test_a_chain_edge_divert_applies_only_its_selected_pairs(self):
        # The deselected pair was applied by the upstream switch of a
        # chain before the edge switch found a stale grant.
        from repro.protocol import KVBlock, Packet
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep, name="D")
        server = dep.server_agent(0)
        diverted = Packet(gaid=config.gaid, src="c0", dst="s0", seq=0,
                          is_cross=True, kv=KVBlock.from_columns(
                              [7, 8, 9], [1, 2, 3], keys=["a", "b", "c"]))
        diverted.bitmap = 0b101
        diverted.switch_processed = True
        server._on_packet(diverted)
        dep.sim.run(until=dep.sim.now + 0.01)
        state = server.app_state("D")
        held = {key: state.soft.get(key)
                + (server.register_value(state, key) or 0)
                for key in "abc"}
        assert held == {"a": 1, "b": 0, "c": 3}
