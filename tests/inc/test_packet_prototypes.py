"""Hot-path packets are copies of a header prototype.

The client agent's data chunks and ACKs and the server agent's ACKs and
synchronous-aggregation returns copy a header built once through the
validating ``Packet`` constructor, then store the fields that differ.
Each must equal, field by field (``uid`` aside), the packet the
constructor builds from the same arguments — and carry no state a
constructor-built packet would not have.  A keyed chunk keeps the key
and value columns it sent, and an overflow replays exactly those.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.inc import Task
from repro.inc.app import AppConfig
from repro.inc.client_agent import ClientAgent, _AppClientState, _TaskState
from repro.inc.memory import MemoryRegion
from repro.inc.server_agent import ServerAgent, _AppServerState
from repro.netsim import Simulator
from repro.protocol import (ClearPolicy, CntFwdSpec, ForwardTarget, KVBlock,
                            Packet, Quantizer, RIPProgram)

from .test_send_map_packets import _CaptureFlow

FIELDS = [f.name for f in dataclasses.fields(Packet)]
PAYLOAD = ("rpc-data", "Update", b"\x08\x01")


class _CaptureHost:
    """Stands in for a Host: logs every packet the agent sends."""

    def __init__(self, name):
        self.name = name
        self.sent = []

    def set_handler(self, _handler):
        pass

    def send(self, packet, _next_hop):
        self.sent.append(packet)


def _same_packet(built, reference):
    """Field-by-field equality; the kv block by column."""
    assert set(vars(built)) == set(FIELDS)        # no non-field state
    for name in FIELDS:
        if name != "kv":
            assert getattr(built, name) == getattr(reference, name), name
    columns = [(list(pkt.kv.addrs), list(pkt.kv.values),
                pkt.kv.mapped_mask, pkt.kv.keys)
               for pkt in (built, reference)]
    assert columns[0] == columns[1]


def _config(linear, counting=True):
    cntfwd = CntFwdSpec(target=ForwardTarget.ALL, threshold=2) if counting \
        else CntFwdSpec(target=ForwardTarget.SRC)
    program = RIPProgram(app_name="PP", add_to_field="q.t", get_field="r.t",
                         clear=ClearPolicy.COPY, cntfwd=cntfwd)
    return AppConfig(gaid=3, program=program, server="s0",
                     clients=("c0", "c1"), value_region=MemoryRegion(0, 96),
                     counter_region=MemoryRegion(96, 8), linear=linear)


def test_a_data_chunk_equals_the_constructor_built_packet():
    sim = Simulator()
    agent = ClientAgent(sim, _CaptureHost("c0"), tor="sw0")
    config = _config(linear=False)
    task = Task(app=config, items=[("k", 1)] * 40, round=6,
                payload=PAYLOAD, payload_bytes=11)
    for offset, n_pairs in ((0, 32), (32, 8), (0, 3)):
        kv = KVBlock.from_columns(range(n_pairs), [7] * n_pairs,
                                  mapped_mask=-1, keys=["k"] * n_pairs)
        built = agent._base_packet(config, task, offset, kv)
        assert built.kv is kv
        _same_packet(built, Packet(
            gaid=3, src="c0", dst="s0", kv=kv, task_id=task.task_id,
            offset=offset, task_total=40, round=6,
            payload=PAYLOAD if offset == 0 else None,
            payload_bytes=11 if offset == 0 else 0,
            bitmap=(1 << n_pairs) - 1))
    # One prototype per (gaid, destination), never sent itself.
    (proto,) = agent._protos.values()
    _same_packet(proto, Packet(gaid=3, src="c0", dst="s0"))


@pytest.mark.parametrize("ecn", [False, True])
def test_an_ack_equals_the_constructor_built_packet(ecn):
    sim = Simulator()
    host = _CaptureHost("c1")
    agent = ClientAgent(sim, host, tor="sw0")
    key = (3, "s0", 2)
    agent._ack_batch[key] = [5, 9, 12]
    if ecn:
        agent._ack_ecn[key] = True
    agent._flush_acks(key)
    (ack,) = host.sent
    _same_packet(ack, Packet(gaid=3, src="c1", dst="s0", is_ack=True,
                             acks=(5, 9, 12), ack_flow=2, ecn=ecn))


def test_a_server_ack_equals_the_constructor_built_packet():
    sim = Simulator()
    host = _CaptureHost("s0")
    server = ServerAgent(sim, host, tor="sw0")
    state = _AppServerState(Quantizer())
    state.pending_grants["c1"] = [(4, 40), (5, 41), (6, 42)]
    state.pending_revokes = [7]
    data = Packet(gaid=3, src="c1", dst="s0", seq=23, flow_id=1,
                  is_cross=True, ecn=True, acks=(2,), task_id=5)
    server._send_ack(state, data)
    server._send_ack(state, data)
    first, second = host.sent
    _same_packet(first, Packet(gaid=3, src="s0", dst="c1", is_ack=True,
                               acks=(23,), ack_flow=1,
                               grants=((4, 40), (5, 41), (6, 42)),
                               revokes=(7,)))
    _same_packet(second, Packet(gaid=3, src="s0", dst="c1", is_ack=True,
                                acks=(23,), ack_flow=1, revokes=(7,)))
    assert state.acked == {("c1", 1): {23}}


@pytest.mark.parametrize("is_of", [False, True])
def test_a_sync_return_equals_the_constructor_built_packet(is_of):
    sim = Simulator()
    server = ServerAgent(sim, _CaptureHost("s0"), tor="sw0")
    config = _config(linear=True)
    state = _AppServerState(Quantizer())
    sent = []
    state.mcast = SimpleNamespace(send=sent.append)
    for offset in (0, 32):
        # A switch-processed round trigger: transport fields, marks and a
        # cached size that must not leak into the return.
        trigger = Packet(gaid=3, src="c1", dst="s0", seq=17, flip=1, srrt=4,
                         flow_id=1, is_cnf=True, cnt_index=97, is_of=is_of,
                         ecn=True, ecn_echo=True, acks=(3,),
                         kv=KVBlock.from_columns(
                             range(offset, offset + 32), range(32),
                             mapped_mask=-1,
                             keys=range(offset, offset + 32)),
                         linear_base=offset, task_id=8, offset=offset,
                         task_total=64, round=2)
        trigger.select_all_slots()
        assert trigger.size_bytes
        trigger.switch_processed = True
        server._on_sync_trigger(state, config, trigger)
        reference = Packet(
            gaid=3, src="s0", dst="c0", is_sa=True, is_clr=True,
            is_cnf=True, cnt_index=97, is_of=is_of, kv=trigger.kv.copy(),
            linear_base=offset, task_id=8, offset=offset, task_total=64,
            round=2)
        reference.select_all_slots()
        _same_packet(sent[-1], reference)
        assert sent[-1].kv.values is not trigger.kv.values
    assert len(sent) == 2


def test_a_keyed_chunk_replays_exactly_its_columns_on_overflow():
    sim = Simulator()
    agent = ClientAgent(sim, _CaptureHost("c0"), tor="sw0")
    config = _config(linear=False, counting=False)
    state = _AppClientState()
    state.configs[config.gaid] = config
    sent = []
    state.flows = [_CaptureFlow(0, sent)]
    items = [(f"w{i}", i * 3 - 40) for i in range(45)]
    task = Task(app=config, items=items, expect_result=True, round=1)
    tstate = _TaskState(task, sim.event())
    agent._send_map(state, config, tstate)
    originals = {pkt.offset: pkt for _flow, pkt in sent}
    assert sorted(originals) == [0, 32]     # nothing granted: cross path
    for offset, stop in ((0, 32), (32, 45)):
        chunk = tstate.chunks[offset]
        assert chunk.keys is originals[offset].kv.keys
        del sent[:]
        agent._resend_overflow(state, config, tstate, chunk,
                               (1 << (stop - offset)) - 1)
        (_flow, replay), = sent
        assert (replay.is_of, replay.is_cross, replay.offset,
                replay.task_id) == (True, True, offset, task.task_id)
        assert replay.kv.keys == [key for key, _ in items[offset:stop]]
        assert list(replay.kv.values) == \
            [value for _, value in items[offset:stop]]
        assert list(replay.kv.addrs) == [0] * (stop - offset)
        assert replay.kv.mapped_mask == 0
        assert replay.bitmap == (1 << (stop - offset)) - 1
