"""Shared-memory channel bus unit tests plus transport equivalence.

The bus is the zero-copy half of the shard interconnect: double slots
per directed channel, round-stamped headers, deterministic spill when a
frame outgrows its slot.  The equivalence tests are the acceptance
property: ``workers=2`` over shm, over pipes, and ``workers=1``
in-process must produce byte-identical ``comparable_state`` — including
the logical frame/byte telemetry, which deliberately counts codec bytes
rather than what any particular transport moved.
"""

import pytest

from repro.experiments.exp_fattree import build_scenario
from repro.netsim import scaled
from repro.netsim.topology import multi_rack_structure
from repro.shard import partition_structure, run_sharded
from repro.shard.codec import CodecTables, RECORD
from repro.shard.fabric import FlowPacket
from repro.shard import transport
from repro.shard.transport import DEFAULT_SLOT_BYTES, ShmChannelBus

CAL = scaled(switch_link_delay_s=10e-6)


@pytest.fixture(scope="module")
def tables():
    structure = multi_rack_structure(2, 2, n_spines=1)
    partition = partition_structure(structure, 2, cal=CAL)
    return CodecTables(structure, partition)


def _messages(tables, n, start=0):
    a, b = tables.node_names[0], tables.node_names[1]
    link = tables.link_names[0]
    return [(link, 1e-6 * (start + i),
             FlowPacket(start + i, i, a, b, 1500)) for i in range(n)]


def test_write_read_round_trip(tables):
    bus = ShmChannelBus(n_channels=2, slot_bytes=4096)
    try:
        messages = _messages(tables, 5)
        assert bus.write_frame(0, 1, messages, tables)
        decoded = bus.read_frame(0, 1, tables)
        assert [(n, w.hex(), p.flow_id) for n, w, p in decoded] == \
               [(n, w.hex(), p.flow_id) for n, w, p in messages]
    finally:
        bus.close()
        bus.unlink()


def test_stale_and_empty_slots_read_none(tables):
    bus = ShmChannelBus(n_channels=1, slot_bytes=4096)
    try:
        assert bus.read_frame(0, 0, tables) is None   # zero-filled shm
        assert bus.read_frame(0, 1, tables) is None
        assert bus.write_frame(0, 3, _messages(tables, 2), tables)
        assert bus.read_frame(0, 3, tables) is not None
        # Same slot parity, different round: the stamp catches it.
        assert bus.read_frame(0, 5, tables) is None
    finally:
        bus.close()
        bus.unlink()


def test_double_slot_isolation(tables):
    bus = ShmChannelBus(n_channels=1, slot_bytes=4096)
    try:
        odd = _messages(tables, 3, start=100)
        even = _messages(tables, 4, start=200)
        assert bus.write_frame(0, 1, odd, tables)
        assert bus.write_frame(0, 2, even, tables)   # other slot
        assert len(bus.read_frame(0, 1, tables)) == 3
        assert len(bus.read_frame(0, 2, tables)) == 4
    finally:
        bus.close()
        bus.unlink()


def test_overflow_spills(tables):
    bus = ShmChannelBus(n_channels=1, slot_bytes=4 * RECORD.size)
    try:
        assert bus.write_frame(0, 1, _messages(tables, 4), tables)
        assert not bus.write_frame(0, 2, _messages(tables, 5), tables)
    finally:
        bus.close()
        bus.unlink()


def test_unknown_transport_rejected():
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=0)
    with pytest.raises(ValueError, match="bogus"):
        run_sharded(scenario_obj, partition=partition, workers=2,
                    transport="bogus")


def test_slot_bytes_default():
    bus = ShmChannelBus(n_channels=1)
    try:
        assert bus.slot_bytes == DEFAULT_SLOT_BYTES
    finally:
        bus.close()
        bus.unlink()


def test_shm_pipe_inproc_identical():
    scenario_obj, partition = build_scenario("rack4", fast=True, seed=2)
    inproc = run_sharded(scenario_obj, partition=partition, workers=1)
    shm = run_sharded(scenario_obj, partition=partition, workers=2,
                      transport="shm")
    pipe = run_sharded(scenario_obj, partition=partition, workers=2,
                       transport="pipe")
    assert shm.transport == "shm"
    assert pipe.transport == "pipe"
    assert inproc.comparable_state() == shm.comparable_state()
    assert inproc.comparable_state() == pipe.comparable_state()
    assert shm.transport_bytes > 0 and shm.frames_sent > 0


def test_tiny_slots_force_spill_same_results(monkeypatch):
    # Slots sized for a single record: nearly every frame spills over
    # the control pipe, and results still cannot move.
    scenario_obj, partition = build_scenario("rack2", fast=True, seed=0)
    reference = run_sharded(scenario_obj, partition=partition, workers=1)
    monkeypatch.setattr(transport, "DEFAULT_SLOT_BYTES", RECORD.size)
    squeezed = run_sharded(scenario_obj, partition=partition,
                           workers=2, transport="shm")
    assert squeezed.comparable_state() == reference.comparable_state()
    assert squeezed.shm_spills > 0
