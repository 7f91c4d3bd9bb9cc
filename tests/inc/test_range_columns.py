"""The range-column contract of a dense linear chunk.

A dense chunk's address and key columns are step-1 ``range`` objects
from ``_send_linear`` to the client's reply reassembly (the switch's
register file recognises a whole row by that type alone).  Everything
that reads a block must not care: each consumer below is driven once
with range columns and once with the equal lists, and must give the
same answer.
"""

import pytest

from repro.inc import Task
from repro.inc.app import AppConfig
from repro.inc.client_agent import (ClientAgent, _AppClientState,
                                    _ChunkState, _TaskState)
from repro.inc.memory import MemoryRegion
from repro.inc.server_agent import ServerAgent, _AppServerState
from repro.netsim import Host, Simulator
from repro.protocol import (ClearPolicy, CntFwdSpec, ForwardTarget, KVBlock,
                            Packet, Quantizer, RIPProgram)

OFFSET, COUNT = 32, 8
ADDRS = range(96 + OFFSET, 96 + OFFSET + COUNT)
KEYS = range(OFFSET, OFFSET + COUNT)
VALUES = [5, -3, 0, 7, 2**31 - 1, -2**31, 11, 1]


def _block(as_range, mapped_mask=-1):
    addrs, keys = (ADDRS, KEYS) if as_range else (list(ADDRS), list(KEYS))
    return KVBlock.from_columns(addrs, VALUES, mapped_mask=mapped_mask,
                                keys=keys)


def _config(clear=ClearPolicy.COPY):
    program = RIPProgram(app_name="RC", get_field="r.t", add_to_field="q.t",
                         clear=clear,
                         cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                           threshold=2))
    return AppConfig(gaid=1, program=program, server="s0",
                     clients=("c0", "c1"), value_region=MemoryRegion(96, 64),
                     counter_region=MemoryRegion(160, 8), linear=True)


def _packet(as_range, **kwargs):
    pkt = Packet(gaid=1, src="s0", dst="c0", kv=_block(as_range),
                 offset=OFFSET, task_total=OFFSET + COUNT, **kwargs)
    pkt.select_all_slots()
    return pkt


def test_from_columns_keeps_a_range_and_arrays_anything_else():
    """Every other int column becomes a fresh list (a plain array)."""
    block = _block(True)
    assert block.addrs is ADDRS and block.keys is KEYS
    assert type(block.values) is list and block.values is not VALUES
    listed = _block(False)
    assert type(listed.addrs) is list and listed.addrs == list(ADDRS)


@pytest.mark.parametrize("as_range", [True, False], ids=["range", "list"])
def test_copies_carry_equal_columns(as_range):
    block = _block(as_range)
    dup = block.copy()
    assert (list(dup.addrs), list(dup.values), list(dup.keys),
            dup.mapped_mask) == (list(ADDRS), VALUES, list(KEYS),
                                 block.mapped_mask)
    assert type(dup.addrs) is type(block.addrs)
    assert dup.values is not block.values
    pkt = _packet(as_range)
    copied = pkt.copy().kv
    assert copied is not pkt.kv
    assert (list(copied.addrs), list(copied.keys)) == (list(ADDRS),
                                                       list(KEYS))
    copied.values[0] = 99
    assert pkt.kv.values[0] == VALUES[0]


def test_selected_contains_agrees():
    ranged, listed = _block(True), _block(False)
    for select in (0xFF, 0b1010_0101, 0):
        for addr in (ADDRS[0] - 1, *ADDRS, ADDRS[-1] + 1):
            assert ranged.selected_contains(addr, select) == \
                listed.selected_contains(addr, select)


def _client():
    sim = Simulator()
    agent = ClientAgent(sim, Host(sim, "c0"), tor="sw0")
    return agent, sim


@pytest.mark.parametrize("clear", [ClearPolicy.COPY, ClearPolicy.LAZY])
def test_extract_values_agrees(clear):
    results = []
    for as_range in (True, False):
        agent, _sim = _client()
        config = _config(clear)
        state = _AppClientState()
        state.configs[1] = config
        state.lazy_baseline[ADDRS[1]] = 4
        values = agent._extract_values(state, config,
                                       _packet(as_range, is_mcast=True),
                                       corrected=False)
        results.append((values, dict(state.lazy_baseline)))
    assert results[0] == results[1]
    assert list(results[0][0]) == list(KEYS)


@pytest.mark.parametrize("keys", [KEYS, range(OFFSET, OFFSET + COUNT - 1),
                                  range(OFFSET + 1, OFFSET + COUNT + 1)],
                         ids=["exact", "partial", "shifted"])
def test_assign_agrees(keys):
    outcomes = []
    for column in (keys, list(keys)):
        config = _config()
        tstate = _TaskState(Task(app=config, column=[0] * (OFFSET + COUNT),
                                 expect_result=True), Simulator().event())
        chunk = _ChunkState(OFFSET, KEYS, [0] * COUNT, mapped=True,
                            awaiting_result=True)
        block = KVBlock.from_columns([0] * len(keys), VALUES[:len(keys)],
                                     mapped_mask=-1, keys=column)
        outcomes.append((tstate.assign(chunk, block), list(tstate.column)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is (keys == KEYS)


def test_server_round_store_agrees():
    rounds = []
    for as_range in (True, False):
        sim = Simulator()
        server = ServerAgent(sim, Host(sim, "s0"), tor="sw0")
        state = _AppServerState(Quantizer())
        state.on_round = lambda round_no, values: rounds.append(
            (round_no, values))
        pkt = _packet(as_range, round=3)
        pkt.task_total = COUNT
        server._store_round_chunk(state, pkt, pkt.kv.values)
    assert rounds[0] == rounds[1] == (3, dict(zip(KEYS, VALUES)))
