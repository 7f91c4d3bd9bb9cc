"""Property-based tests of the RIP pipeline's core invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol import (
    CntFwdSpec,
    ForwardTarget,
    KVBlock,
    Packet,
    RIPProgram,
)
from repro.switchsim import (
    AppEntry,
    FlowStateTable,
    RegisterFile,
    RIPPipeline,
)

AGGR = RIPProgram(app_name="p", get_field="r.t", add_to_field="q.t")

W_MAX = 8


def fresh_pipeline():
    regs = RegisterFile(segments=8, registers_per_segment=16)
    flows = FlowStateTable(w_max=W_MAX)
    return RIPPipeline(regs, flows), regs, flows


def packet(seq, addr, value, srrt):
    pkt = Packet(gaid=1, src="c0", dst="s0", seq=seq,
                 flip=(seq // W_MAX) % 2, srrt=srrt,
                 kv=KVBlock.from_columns([addr], [value], mapped_mask=-1))
    pkt.select_all_slots()
    return pkt


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=127),   # addr
                          st.integers(min_value=-50, max_value=50)),  # value
                min_size=1, max_size=2 * W_MAX),
       st.data())
def test_duplicates_never_change_register_state(operations, data):
    """For any in-window duplication pattern, register totals equal the
    duplicate-free reference — the §5.1 idempotence theorem."""
    pipe, regs, flows = fresh_pipeline()
    slot = flows.allocate()
    entry = AppEntry(gaid=1, program=AGGR, server="s0", clients=("c0",))
    reference = {}
    window = []
    for seq, (addr, value) in enumerate(operations):
        pipe.process(packet(seq, addr, value, slot), entry, 0.0)
        reference[addr] = reference.get(addr, 0) + value
        window.append((seq, addr, value))
        window = window[-W_MAX:]
        # Arbitrary duplicate deliveries of anything still in-window.
        n_dups = data.draw(st.integers(min_value=0, max_value=3))
        for _ in range(n_dups):
            dup_seq, dup_addr, dup_value = data.draw(
                st.sampled_from(window))
            pipe.process(packet(dup_seq, dup_addr, dup_value, slot),
                         entry, 0.0)
    for addr, total in reference.items():
        assert regs.read(addr) == total


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=5),    # voters
       st.integers(min_value=1, max_value=4))    # rounds
def test_cntfwd_fires_exactly_once_per_round(n_voters, n_rounds):
    prog = RIPProgram(app_name="v", add_to_field="v.k",
                      cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                        threshold=n_voters))
    pipe, regs, flows = fresh_pipeline()
    entry = AppEntry(gaid=1, program=prog, server="s0",
                     clients=tuple(f"c{i}" for i in range(n_voters)))
    slots = [flows.allocate() for _ in range(n_voters)]
    for round_no in range(n_rounds):
        fires = 0
        for voter, slot in enumerate(slots):
            pkt = packet(round_no, addr=voter, value=1, srrt=slot)
            pkt.is_cnf = True
            pkt.cnt_index = 100
            verdict = pipe.process(pkt, entry, 0.0)
            if verdict.action.value == "multicast":
                fires += 1
        assert fires == 1            # exactly the threshold packet
        assert regs.read_raw(100) == 0   # re-armed for the next round
