"""Packetisation differential for the keyed (map-addressed) send path.

``ClientAgent._send_map`` classifies a task's pairs into column lists and
slices them straight into ``KVBlock.from_columns``.  The path it replaced
built one ``KVPair`` row object per pair and let ``Packet`` re-walk them
through ``KVBlock.from_pairs``.  That row-object packetiser lives on here
as the reference: for random key sets — segment conflicts, hash
collisions, ungranted keys, no switch, counting and routing-only
programs — both must emit exactly the same packet sequence and leave the
same chunk and address-space state behind.
"""

from hypothesis import given, settings, strategies as st

from repro.inc import Task
from repro.inc.addressing import LogicalSpace
from repro.inc.app import AppConfig
from repro.inc.client_agent import (ClientAgent, _AppClientState,
                                    _TaskState)
from repro.inc.memory import MemoryRegion
from repro.netsim import DEFAULT_CALIBRATION, Host, Simulator
from repro.protocol import (CntFwdSpec, ForwardTarget, KV_PAIRS_PER_PACKET,
                            KVPair, Packet, RIPProgram)

SEGMENTS = DEFAULT_CALIBRATION.memory_segments

PROGRAMS = {
    "reduce": RIPProgram(app_name="PK", add_to_field="r.kvs",
                         cntfwd=CntFwdSpec(target=ForwardTarget.SRC)),
    "vote": RIPProgram(app_name="PK", add_to_field="r.kvs",
                       cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                         threshold=2)),
    "route": RIPProgram(app_name="PK",
                        cntfwd=CntFwdSpec(target=ForwardTarget.ALL)),
}

# Integer keys k and k + 2**32 share a logical address (the hash keeps
# 32 bits), so the second one seen collides and rides the server path.
keys = st.one_of(st.integers(0, 40),
                 st.integers(0, 40).map(lambda k: k + 2**32),
                 st.sampled_from([f"w{i}" for i in range(40)]))
pairs = st.tuples(keys, st.integers(-2**31, 2**31 - 1))
# Short tasks shrink well; long ones fill 32-pair packets on both paths.
items_strategy = st.one_of(st.lists(pairs, max_size=40),
                           st.lists(pairs, min_size=70, max_size=100))


class _CaptureFlow:
    """Stands in for a ReliableFlow: logs ``(flow index, packet)``."""

    def __init__(self, index, log):
        self.index = index
        self.log = log

    def enqueue(self, packet):
        self.log.append((self.index, packet))


def _describe(pkt):
    block = pkt.kv
    return (pkt.offset, pkt.is_cross, pkt.is_cnf, pkt.cnt_index,
            list(block.addrs), list(block.values), block.keys,
            block.mapped_mask, pkt.bitmap, pkt.task_total)


def _reference(items, granted, has_switch, program):
    """The row-object packetiser: ``[(packet fields, chunk items)]``."""
    def packet(pairs, offset, cross, cnt_index=0):
        pkt = Packet(gaid=1, src="c0", dst="s0", kv=pairs, offset=offset,
                     task_total=len(items))
        pkt.select_all_slots()
        pkt.is_cross = cross
        if not cross and program.cntfwd.counts:
            pkt.is_cnf = True
            pkt.cnt_index = cnt_index
        return _describe(pkt), [(p.key, p.value) for p in pairs]

    out = []
    if not program.uses_map and has_switch:
        for start in range(0, len(items), KV_PAIRS_PER_PACKET):
            out.append(packet(
                [KVPair(0, value, True, key) for key, value
                 in items[start:start + KV_PAIRS_PER_PACKET]],
                start, cross=False))
        return out
    space = LogicalSpace()
    mapped_pairs, cross_pairs = [], []
    for key, value in items:
        logical = space.resolve(key)
        if logical is None or not has_switch:
            cross_pairs.append(KVPair(0, value, False, key))
        elif logical not in granted:
            cross_pairs.append(KVPair(logical, value, False, key))
        else:
            mapped_pairs.append(KVPair(granted[logical], value, True, key))
    offset = 0
    if program.cntfwd.counts:
        for pair in mapped_pairs:
            out.append(packet([pair], offset, False, cnt_index=pair.addr))
            offset += 1
        for pair in cross_pairs:
            out.append(packet([pair], offset, True))
            offset += 1
        return out
    packet_pairs, used_segments = [], set()
    for pair in mapped_pairs:
        segment = pair.addr % SEGMENTS
        if segment in used_segments or \
                len(packet_pairs) >= KV_PAIRS_PER_PACKET:
            out.append(packet(packet_pairs, offset, False))
            offset += len(packet_pairs)
            packet_pairs, used_segments = [], set()
        packet_pairs.append(pair)
        used_segments.add(segment)
    if packet_pairs:
        out.append(packet(packet_pairs, offset, False))
        offset += len(packet_pairs)
    for start in range(0, len(cross_pairs), KV_PAIRS_PER_PACKET):
        chunk = cross_pairs[start:start + KV_PAIRS_PER_PACKET]
        out.append(packet(chunk, offset, True))
        offset += len(chunk)
    return out


@settings(max_examples=60, deadline=None)
@given(items=items_strategy,
       program=st.sampled_from(sorted(PROGRAMS)),
       has_switch=st.booleans(),
       grant_seed=st.randoms(use_true_random=False),
       grant_share=st.sampled_from([0.0, 0.5, 1.0]),
       placement=st.sampled_from(["dense", "random", "narrow"]))
def test_send_map_emits_the_row_object_packet_sequence(
        items, program, has_switch, grant_seed, grant_share, placement):
    program = PROGRAMS[program]
    sim = Simulator()
    agent = ClientAgent(sim, Host(sim, "c0"), tor="sw0")
    config = AppConfig(gaid=1, program=program, server="s0",
                       clients=("c0",), value_region=MemoryRegion(0, 4096),
                       counter_region=MemoryRegion(4096, 64),
                       has_switch=has_switch)
    # Grant a share of the logical addresses.  "dense" hands out
    # consecutive registers (distinct segments: packets fill to 32),
    # "random" scatters them, "narrow" draws from three memory segments
    # so most neighbouring pairs conflict and packets close early.
    space = LogicalSpace()
    granted = {}
    for key, _value in items:
        logical = space.resolve(key)
        if logical is not None and logical not in granted and \
                grant_seed.random() < grant_share:
            if placement == "dense":
                granted[logical] = len(granted)
            else:
                granted[logical] = grant_seed.randrange(
                    3 if placement == "narrow" else 4096)
    state = _AppClientState(program.app_name)
    state.configs[config.gaid] = config
    sent = []
    state.flows = [_CaptureFlow(0, sent), _CaptureFlow(1, sent)]
    state.grants = dict(granted)

    task = Task(app=config, items=list(items), expect_result=False)
    tstate = _TaskState(task, sim.event())
    agent._send_map(state, config, tstate)

    want = _reference(items, granted, has_switch, program)
    assert [_describe(pkt) for _flow, pkt in sent] == [d for d, _ in want]
    assert [flow for flow, _pkt in sent] == \
        [n % 2 for n in range(len(sent))]          # round-robin flows
    assert [tstate.chunks[d[0]].items for d, _ in want] == \
        [chunk_items for _, chunk_items in want]
    assert len(tstate.chunks) == tstate.unresolved == len(want)
    for (_, is_cross, *_rest), chunk in zip((d for d, _ in want),
                                            tstate.chunks.values()):
        assert chunk.mapped is (not is_cross)
        assert chunk.awaiting_result is program.cntfwd.counts
    mapped_pairs = sum(len(d[4]) for d, _ in want if not d[1])
    assert tstate.mapped_pairs == mapped_pairs
    assert tstate.fallback_pairs == len(items) - mapped_pairs
    if has_switch and program.uses_map:
        # Side tables the receive path and the LRU report rely on.
        resolved = [space.resolve(key) for key, _ in items]
        assert state.usage_counts == {
            logical: resolved.count(logical)
            for logical in resolved if logical is not None}
        assert state.phys_to_key == {
            granted[space.resolve(key)]: key for key, _ in items
            if space.resolve(key) in granted}
