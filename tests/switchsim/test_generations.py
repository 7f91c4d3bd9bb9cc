"""Grant generations: an access granted before its register's eviction
is applied nowhere on the switch (DESIGN.md §4.1(5))."""

from repro.protocol import (
    ADDR_BITS,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    KVBlock,
    Packet,
    RIPProgram,
)
from repro.switchsim import (
    Action,
    AppEntry,
    FlowStateTable,
    RegisterFile,
    RIPPipeline,
)

CAPACITY = 32 * 100
BOUNCE = CntFwdSpec(target=ForwardTarget.SRC)
ADD = RIPProgram(app_name="g", add_to_field="r.kvs", cntfwd=BOUNCE)
GET = RIPProgram(app_name="g", get_field="q.kvs", cntfwd=BOUNCE)
VOTE = RIPProgram(app_name="g", add_to_field="v.kvs",
                  cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2))
COPY = RIPProgram(app_name="g", get_field="r.kvs", add_to_field="r.kvs",
                  clear=ClearPolicy.COPY)


def word(addr, generation):
    return addr | generation << ADDR_BITS


def make_pipeline(phys_base=0):
    regs = RegisterFile(segments=32, registers_per_segment=100)
    flows = FlowStateTable(w_max=8)
    return RIPPipeline(regs, flows, phys_base=phys_base), regs, flows


def entry(program):
    return AppEntry(gaid=1, program=program, server="s0",
                    clients=("c0", "c1"))


def packet(words, values, seq=0, srrt=-1, **kwargs):
    kv = KVBlock.from_columns(words, values, mapped_mask=-1,
                              keys=[f"k{w}" for w in words])
    pkt = Packet(gaid=1, src="c0", dst="s0", seq=seq, srrt=srrt,
                 flip=(seq // 8) % 2, kv=kv, **kwargs)
    pkt.select_all_slots()
    return pkt


def test_eviction_reads_clears_and_bumps_the_generation():
    regs = RegisterFile(segments=32, registers_per_segment=100)
    regs.write(3, 10)
    assert regs.generations == {}
    assert regs.evict(3) == (10, 1)
    assert regs.read_raw(3) == 0
    assert regs.evict(3) == (0, 2)
    assert regs.generations == {3: 2}


def test_a_stale_access_is_diverted_with_nothing_applied():
    pipe, regs, _ = make_pipeline()
    regs.evict(3)
    pkt = packet([3, 4], [5, 6])
    verdict = pipe.process(pkt, entry(ADD), 0.0)
    assert verdict.action is Action.FORWARD and verdict.dst == "s0"
    assert pkt.is_cross
    assert (regs.read_raw(3), regs.read_raw(4)) == (0, 0)
    assert pkt.kv.values == [5, 6]


def test_an_access_under_the_current_generation_applies():
    pipe, regs, _ = make_pipeline()
    regs.evict(3)
    words = [word(3, 1), 4]
    pkt = packet(words, [5, 6])
    verdict = pipe.process(pkt, entry(ADD), 0.0)
    assert verdict.action is Action.BOUNCE and not pkt.is_cross
    assert (regs.read_raw(3), regs.read_raw(4)) == (5, 6)
    assert pkt.kv.addrs == words          # the packet keeps its words


def _applied_then_evicted(program):
    """A first copy applied before its register's eviction, and its
    retransmission."""
    pipe, regs, flows = make_pipeline()
    slot = flows.allocate()
    kwargs = {"is_cnf": True, "cnt_index": 3} if program.cntfwd.counts \
        else {}
    pipe.process(packet([3], [5], srrt=slot, **kwargs), entry(program), 0.0)
    regs.evict(3)
    retx = packet([3], [5], srrt=slot, **kwargs)
    return pipe.process(retx, entry(program), 0.0), retx, regs


def test_a_writing_retransmission_after_eviction_touches_nothing():
    verdict, retx, regs = _applied_then_evicted(ADD)
    assert verdict.action is Action.BOUNCE and verdict.retransmission
    assert not retx.is_cross and regs.read_raw(3) == 0
    verdict, retx, regs = _applied_then_evicted(VOTE)
    assert verdict.action is Action.DROP and regs.read_raw(3) == 0


def test_a_reading_retransmission_after_eviction_asks_the_server():
    verdict, retx, _regs = _applied_then_evicted(GET)
    assert verdict.action is Action.FORWARD and retx.is_cross


def test_a_chain_edge_deselects_the_pairs_upstream_applied():
    pipe, regs, _ = make_pipeline(phys_base=CAPACITY)
    regs.evict(3)
    pkt = packet([5, CAPACITY + 3, 6], [7, 8, 9])
    pipe.process(pkt, entry(ADD), 0.0)
    assert pkt.is_cross and pkt.bitmap == 0b010


def test_a_return_clears_only_registers_of_its_generation():
    pipe, regs, _ = make_pipeline()
    regs.evict(3)
    regs.evict(4)
    regs.write(3, 9)
    regs.write(4, 9)
    ret = packet([3, word(4, 1)], [0, 0], is_clr=True)
    ret.is_sa = True
    pipe.process(ret, entry(COPY), 0.0)
    assert (regs.read_raw(3), regs.read_raw(4)) == (9, 0)
