"""Packetisation differential for the dense linear (SyncAgtr) send path.

A dense linear task is a bare int32 value column: ``_send_linear`` slices
it per chunk and derives addresses and keys from the chunk offset.  The
path it replaced carried ``(index, value)`` rows and re-split them into
columns for every chunk.  That row packetiser lives on here as the
reference: for every tensor length around the 32-pair chunk size, both
clear policies that move addresses (copy, shadow in both round
parities), counting and non-counting programs, with and without a
switch, both must emit exactly the same packets — and a task built from
rows must be indistinguishable from one built from the column.  The same
reference checks the other shape ``_send_linear`` serves: ``indexed``
tasks, whose sparse ``(index, value)`` rows go out one pair per packet
under a counting program (one vote per consensus instance).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.inc import Task
from repro.inc.app import AppConfig
from repro.inc.client_agent import (ClientAgent, _AppClientState,
                                    _TaskState)
from repro.inc.memory import MemoryRegion
from repro.netsim import Host, Simulator
from repro.protocol import (ClearPolicy, CntFwdSpec, ForwardTarget, KVBlock,
                            KV_PAIRS_PER_PACKET, Packet, RIPProgram)

from .test_send_map_packets import _CaptureFlow

VALUE_REGION = MemoryRegion(64, 96)     # shadow half = 48: chunks wrap
COUNTER_REGION = MemoryRegion(4096, 5)  # fewer counters than chunks
PAYLOAD = ("rpc-data", "Update", b"\x08\x01")

int32 = st.integers(-2**31, 2**31 - 1)


def _program(counting, clear):
    target, threshold = (ForwardTarget.ALL, 2) if counting \
        else (ForwardTarget.SRC, 0)
    return RIPProgram(app_name="DL", get_field="r.t", add_to_field="q.t",
                      clear=clear,
                      cntfwd=CntFwdSpec(target=target, threshold=threshold))


def _describe(pkt):
    block = pkt.kv
    return (pkt.gaid, pkt.src, pkt.dst, pkt.task_id, pkt.round, pkt.offset,
            pkt.task_total, list(block.addrs), list(block.values),
            list(block.keys), block.mapped_mask, pkt.bitmap, pkt.linear_base,
            pkt.shadow_offset, pkt.is_cnf, pkt.cnt_index, pkt.is_cross,
            pkt.is_of, pkt.payload, pkt.payload_bytes)


def _reference(rows, config, task):
    """The row packetiser (the body ``_send_linear`` had before dense
    tasks became columns and the per-task invariants were hoisted):
    ``[(packet fields, pairs in the chunk)]``."""
    half = config.active_region_size or 1
    parity = task.round % 2 if config.shadow else 0
    base = config.value_region.base + parity * half
    shadow_offset = 0
    if config.shadow:
        shadow_offset = half if parity == 0 else -half
    # One chunk per sparse index when counting, else 32 pairs per packet.
    chunk_size = 1 if task.indexed and config.program.cntfwd.counts \
        else KV_PAIRS_PER_PACKET
    out = []
    for offset in range(0, len(rows), chunk_size):
        chunk_items = rows[offset:offset + chunk_size]
        indices = [item[0] for item in chunk_items]
        kv = KVBlock.from_columns(
            [base + index % half for index in indices],
            [item[1] for item in chunk_items],
            mapped_mask=-1, keys=indices)
        pkt = Packet(
            gaid=config.gaid, src="c0", dst=config.server, kv=kv,
            task_id=task.task_id, offset=offset, task_total=len(rows),
            round=task.round,
            payload=task.payload if offset == 0 else None,
            payload_bytes=task.payload_bytes if offset == 0 else 0)
        pkt.select_all_slots()
        if not task.indexed:
            pkt.linear_base = kv.addrs[0]
        pkt.shadow_offset = shadow_offset
        if config.program.cntfwd.counts:
            # The chunk's counter: a register, or the server's software
            # counter of that number.
            counter = indices[0] if task.indexed else indices[0] // 32
            if config.has_switch:
                pkt.is_cnf = True
                pkt.cnt_index = config.counter_addr(counter)
            else:
                pkt.cnt_index = counter
        if not config.has_switch:
            pkt.is_cross = True
        out.append((_describe(pkt), len(chunk_items)))
    return out


def _send(config, task):
    sim = Simulator()
    agent = ClientAgent(sim, Host(sim, "c0"), tor="sw0")
    state = _AppClientState()
    state.configs[config.gaid] = config
    sent = []
    state.flows = [_CaptureFlow(0, sent), _CaptureFlow(1, sent)]
    tstate = _TaskState(task, sim.event())
    agent._send_linear(state, config, tstate)
    return agent, state, tstate, sent


@settings(max_examples=120, deadline=None)
@given(values=st.one_of(st.lists(int32, max_size=100),
                        st.integers(0, 3).flatmap(
                            lambda k: st.lists(int32, min_size=32 * k,
                                               max_size=32 * k))),
       clear=st.sampled_from([ClearPolicy.COPY, ClearPolicy.SHADOW]),
       round_no=st.integers(0, 3),
       counting=st.booleans(), has_switch=st.booleans(),
       expect_result=st.booleans(), from_rows=st.booleans())
def test_dense_send_emits_the_row_packet_sequence(
        values, clear, round_no, counting, has_switch, expect_result,
        from_rows):
    config = AppConfig(gaid=3, program=_program(counting, clear),
                       server="s0", clients=("c0", "c1"),
                       value_region=VALUE_REGION if has_switch
                       else MemoryRegion(0, 0),
                       counter_region=COUNTER_REGION, linear=True,
                       has_switch=has_switch)
    rows = list(enumerate(values))
    data = dict(items=rows) if from_rows else dict(column=list(values))
    task = Task(app=config, round=round_no, expect_result=expect_result,
                payload=PAYLOAD, payload_bytes=11, **data)
    assert task.column == values and task.size == len(values)

    _agent, state, tstate, sent = _send(config, task)

    want = _reference(rows, config, task)
    assert [_describe(pkt) for _flow, pkt in sent] == [d for d, _ in want]
    assert [flow for flow, _pkt in sent] == \
        [n % 2 for n in range(len(sent))]          # round-robin flows
    assert len(tstate.chunks) == tstate.unresolved == len(want)
    offsets = [d[5] for d, _ in want]
    assert list(tstate.chunks) == offsets
    for offset, (_d, n_pairs) in zip(offsets, want):
        chunk = tstate.chunks[offset]
        assert chunk.offset == offset and len(chunk.values) == n_pairs
        assert chunk.values == values[offset:offset + n_pairs]
        assert chunk.keys == range(offset, offset + n_pairs)
        assert chunk.mapped is True
        assert chunk.awaiting_result is (expect_result or counting)
    assert tstate.mapped_pairs == len(values)
    assert tstate.fallback_pairs == 0
    assert state.round_chunks == {(3, round_no, offset): task.task_id
                                  for offset in offsets}
    # The result column exists exactly when something will be read back.
    if expect_result or counting:
        assert tstate.column == [0] * len(values) and tstate.values is None
    else:
        assert tstate.column is None and tstate.values == {}


@settings(max_examples=120, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 10_000), int32), max_size=70,
                     unique_by=lambda row: row[0]),
       clear=st.sampled_from([ClearPolicy.COPY, ClearPolicy.SHADOW]),
       round_no=st.integers(0, 3),
       counting=st.booleans(), has_switch=st.booleans(),
       expect_result=st.booleans())
def test_indexed_send_emits_the_row_packet_sequence(
        rows, clear, round_no, counting, has_switch, expect_result):
    # Sparse integer indices (one vote counter per consensus instance):
    # rows stay rows, a counting program sends one pair per packet — the
    # Paxos path — and every packet, chunk record and correlation entry
    # is the one the unhoisted loop produced.
    config = AppConfig(gaid=3, program=_program(counting, clear),
                       server="s0", clients=("c0", "c1"),
                       value_region=VALUE_REGION if has_switch
                       else MemoryRegion(0, 0),
                       counter_region=COUNTER_REGION, linear=True,
                       has_switch=has_switch)
    task = Task(app=config, items=list(rows), round=round_no, indexed=True,
                expect_result=expect_result, payload=PAYLOAD,
                payload_bytes=11)
    assert task.column is None and task.size == len(rows)

    _agent, state, tstate, sent = _send(config, task)

    want = _reference(rows, config, task)
    assert [_describe(pkt) for _flow, pkt in sent] == [d for d, _ in want]
    assert [flow for flow, _pkt in sent] == \
        [n % 2 for n in range(len(sent))]          # round-robin flows
    if counting:
        assert [n for _d, n in want] == [1] * len(rows)
    offsets = [d[5] for d, _ in want]
    assert list(tstate.chunks) == offsets
    assert tstate.unresolved == len(want)
    for offset, (_d, n_pairs) in zip(offsets, want):
        chunk = tstate.chunks[offset]
        assert chunk.offset == offset
        assert list(zip(chunk.keys, chunk.values)) == \
            rows[offset:offset + n_pairs]
        assert chunk.mapped is True
        assert chunk.awaiting_result is (expect_result or counting)
    assert tstate.mapped_pairs == len(rows) and tstate.fallback_pairs == 0
    assert state.round_chunks == {(3, round_no, offset): task.task_id
                                  for offset in offsets}
    assert tstate.column is None and tstate.values == {}


@given(values=st.lists(int32, min_size=1, max_size=70),
       offset=st.integers(0, 2))
def test_overflow_resend_rebuilds_keys_from_the_offset(values, offset):
    config = AppConfig(gaid=3, program=_program(True, ClearPolicy.COPY),
                       server="s0", clients=("c0", "c1"),
                       value_region=VALUE_REGION,
                       counter_region=COUNTER_REGION, linear=True)
    task = Task(app=config, column=values, round=5)
    agent, state, tstate, sent = _send(config, task)
    offset = min(offset * 32, (len(values) - 1) // 32 * 32)
    chunk = tstate.chunks[offset]
    del sent[:]
    agent._resend_overflow(state, config, tstate, chunk,
                           (1 << len(chunk.values)) - 1)
    (_flow, pkt), = sent
    stop = min(offset + 32, len(values))
    assert (pkt.is_of, pkt.is_cross, pkt.offset, pkt.task_total,
            pkt.round, pkt.task_id) == \
        (True, True, offset, len(values), 5, task.task_id)
    assert pkt.kv.keys == list(range(offset, stop))
    assert list(pkt.kv.values) == values[offset:stop]
    assert list(pkt.kv.addrs) == [0] * (stop - offset)
    assert pkt.kv.mapped_mask == 0


@pytest.mark.parametrize("rows", [
    [(1, 5)],                               # does not start at 0
    [(0, 1), (2, 3)],                       # gap
    [(0, 1), (0, 2)],                       # duplicate index
    [(0, 1), (1, 2), (1, 3)],
    [(1, 2), (0, 1)],                       # out of order
], ids=["offset", "gap", "duplicate", "late-duplicate", "unordered"])
def test_non_dense_rows_are_rejected(rows):
    config = AppConfig(gaid=3, program=_program(True, ClearPolicy.COPY),
                       server="s0", clients=("c0",),
                       value_region=VALUE_REGION,
                       counter_region=COUNTER_REGION, linear=True)
    with pytest.raises(ValueError, match="dense arrays indexed from 0"):
        Task(app=config, items=rows)
    # The same rows are a legal *indexed* task, which keeps them.
    if all(index >= 0 for index, _ in rows):
        task = Task(app=config, items=rows, indexed=True)
        assert task.items == rows and task.column is None


def test_a_column_belongs_to_dense_linear_tasks_only():
    program = _program(False, ClearPolicy.COPY)
    regions = dict(value_region=VALUE_REGION, counter_region=COUNTER_REGION)
    linear = AppConfig(gaid=3, program=program, server="s0",
                       clients=("c0",), linear=True, **regions)
    keyed = AppConfig(gaid=4, program=program, server="s0",
                      clients=("c0",), **regions)
    with pytest.raises(ValueError):
        Task(app=keyed, column=[1, 2])
    with pytest.raises(ValueError):
        Task(app=linear, column=[1, 2], indexed=True)
    with pytest.raises(ValueError):
        Task(app=linear, items=[(0, 1)], column=[1])
    # Rows are transposed once and dropped: no second full-tensor list.
    rows = [(0, 7), (1, 8)]
    task = Task(app=linear, items=rows)
    assert (task.column, task.items, task.size) == ([7, 8], [], 2)
    assert rows == [(0, 7), (1, 8)]
