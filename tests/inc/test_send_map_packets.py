"""Packetisation differential for the keyed (map-addressed) send path.

``ClientAgent._send_map`` classifies a task's pairs into per-packet
column lists and hands them straight to ``KVBlock.from_columns``.  The
reference here is a row-object packetiser: one row per pair, mapped rows
placed first-fit — each into the first packet that does not yet access
its memory segment and has a free slot (§5.2.2: a packet touches each
segment at most once).  For random key sets — segment conflicts, hash
collisions, ungranted keys, no switch, counting and routing-only
programs, 32 and 4 segments — both must emit exactly the same packet
sequence and leave the same chunk and address-space state behind.
Separate properties pin what first-fit buys: the fewest packets the
segment rule allows, with every key's pairs still in task order.
"""

from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro.inc import Task
from repro.inc.addressing import LogicalSpace
from repro.inc.app import AppConfig
from repro.inc.client_agent import (ClientAgent, _AppClientState,
                                    _TaskState)
from repro.inc.memory import MemoryRegion
from repro.netsim import DEFAULT_CALIBRATION, Host, Simulator, scaled
from repro.protocol import (CntFwdSpec, ForwardTarget, KV_PAIRS_PER_PACKET,
                            KVBlock, Packet, RIPProgram)

# The paper's chip, and a small one on which segment conflicts dominate.
SEGMENT_COUNTS = (DEFAULT_CALIBRATION.memory_segments, 4)

KVPair = namedtuple("KVPair", "addr value mapped key")

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


def _block(pairs):
    """Columns of the rows; no keys column when every key is ``None``."""
    keys = [pair.key for pair in pairs]
    return KVBlock.from_columns(
        [pair.addr for pair in pairs], [pair.value for pair in pairs],
        sum(1 << index for index, pair in enumerate(pairs) if pair.mapped),
        keys if any(key is not None for key in keys) else None)


def _reference(items, granted, has_switch, program, segments):
    """The row-object packetiser: ``[(packet fields, (chunk keys, chunk
    values))]``."""
    def packet(pairs, offset, cross, cnt_index=0):
        pkt = Packet(gaid=1, src="c0", dst="s0", kv=_block(pairs),
                     offset=offset, task_total=len(items))
        pkt.select_all_slots()
        pkt.is_cross = cross
        if not cross and program.cntfwd.counts:
            pkt.is_cnf = True
            pkt.cnt_index = cnt_index
        return _describe(pkt), ([p.key for p in pairs],
                                [p.value for p in pairs])

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
    packed = []                           # [(rows, segments they use)]
    for pair in mapped_pairs:
        segment = pair.addr % segments
        for rows, used in packed:
            if segment not in used and len(rows) < KV_PAIRS_PER_PACKET:
                break
        else:
            rows, used = [], set()
            packed.append((rows, used))
        rows.append(pair)
        used.add(segment)
    for rows, _used in packed:
        out.append(packet(rows, offset, False))
        offset += len(rows)
    for start in range(0, len(cross_pairs), KV_PAIRS_PER_PACKET):
        chunk = cross_pairs[start:start + KV_PAIRS_PER_PACKET]
        out.append(packet(chunk, offset, True))
        offset += len(chunk)
    return out


def _grant(items, grant_seed, grant_share, placement):
    """Grant a share of the logical addresses.  "dense" hands out
    consecutive registers (distinct segments: packets fill up), "random"
    scatters them, "narrow" draws from three registers so most pairs
    conflict and mapped packets stay small."""
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
    return granted


def _send(items, granted, program, has_switch, segments):
    """Run ``_send_map`` on one task; ``(sent, task state, app state)``
    with ``sent`` the ``(flow index, packet)`` log."""
    sim = Simulator()
    agent = ClientAgent(sim, Host(sim, "c0"), tor="sw0",
                        cal=scaled(memory_segments=segments))
    config = AppConfig(gaid=1, program=program, server="s0",
                       clients=("c0",), value_region=MemoryRegion(0, 4096),
                       counter_region=MemoryRegion(4096, 64),
                       has_switch=has_switch)
    state = _AppClientState()
    state.configs[config.gaid] = config
    sent = []
    state.flows = [_CaptureFlow(0, sent), _CaptureFlow(1, sent)]
    state.grants = dict(granted)
    task = Task(app=config, items=list(items), expect_result=False)
    tstate = _TaskState(task, sim.event())
    agent._send_map(state, config, tstate)
    return sent, tstate, state


@settings(max_examples=60, deadline=None)
@given(segments=st.sampled_from(SEGMENT_COUNTS),
       items=items_strategy,
       program=st.sampled_from(sorted(PROGRAMS)),
       has_switch=st.booleans(),
       grant_seed=st.randoms(use_true_random=False),
       grant_share=st.sampled_from([0.0, 0.5, 1.0]),
       placement=st.sampled_from(["dense", "random", "narrow"]))
def test_send_map_emits_the_row_object_packet_sequence(
        segments, items, program, has_switch, grant_seed, grant_share,
        placement):
    program = PROGRAMS[program]
    granted = _grant(items, grant_seed, grant_share, placement)
    sent, tstate, state = _send(items, granted, program, has_switch,
                                segments)

    want = _reference(items, granted, has_switch, program, segments)
    assert [_describe(pkt) for _flow, pkt in sent] == [d for d, _ in want]
    assert [flow for flow, _pkt in sent] == \
        [n % 2 for n in range(len(sent))]          # round-robin flows
    # A chunk keeps the key and value columns its packet was built from.
    assert [(tstate.chunks[d[0]].keys, tstate.chunks[d[0]].values)
            for d, _ in want] == [columns for _, columns in want]
    for _flow, pkt in sent:
        assert tstate.chunks[pkt.offset].keys is pkt.kv.keys
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
        space = LogicalSpace()
        resolved = [space.resolve(key) for key, _ in items]
        assert state.usage_counts == {
            logical: resolved.count(logical)
            for logical in resolved if logical is not None}
        assert state.phys_to_key == {
            granted[space.resolve(key)]: key for key, _ in items
            if space.resolve(key) in granted}


@settings(max_examples=60, deadline=None)
@given(segments=st.sampled_from(SEGMENT_COUNTS),
       task_keys=st.lists(keys, max_size=100),
       grant_seed=st.randoms(use_true_random=False),
       placement=st.sampled_from(["dense", "random", "narrow"]))
def test_mapped_packets_are_the_fewest_the_segment_rule_allows(
        segments, task_keys, grant_seed, placement):
    # Each pair's value is its task position, so order is observable.
    items = [(key, position) for position, key in enumerate(task_keys)]
    granted = _grant(items, grant_seed, 1.0, placement)
    sent, _tstate, _state = _send(items, granted, PROGRAMS["reduce"],
                                  True, segments)
    mapped = [pkt.kv for _flow, pkt in sent if not pkt.is_cross]
    for block in mapped:
        used = [addr % segments for addr in block.addrs]
        assert len(used) == len(set(used)) <= KV_PAIRS_PER_PACKET
        assert list(block.values) == sorted(block.values)
    # A key's pairs share one register: across packets they go out in
    # task order, duplicates included.
    positions = {}
    for block in mapped:
        for key, position in zip(block.keys, block.values):
            positions.setdefault(key, []).append(position)
    for key, seen in positions.items():
        assert seen == sorted(seen), key
    # Packet j carries the j-th pair of every segment: as many packets
    # as the busiest segment has pairs.
    per_segment = {}
    for block in mapped:
        for addr in block.addrs:
            segment = addr % segments
            per_segment[segment] = per_segment.get(segment, 0) + 1
    assert len(mapped) == max(per_segment.values(), default=0)
