"""The per-host client agent (paper §4, §5).

The client agent sits between the RPC layer and the network.  It:

* partitions each task (an RPC call's IEDT stream) into chunks of up to
  32 kv pairs and spreads them across parallel reliable flows — the
  paper's *automatic data parallelism*;
* quantized values arrive from the RPC layer; the agent decides per key
  whether the pair rides the switch path (granted mapping), the server
  path (``is_cross``: unmapped or collided keys), or the overflow
  bypass (``is_of``);
* assembles results from bounced packets, switch multicasts, and server
  return streams, adjusting for the lazy clear policy's baselines;
* detects overflow sentinels and re-executes the affected chunks through
  the server in software (§5.2.1);
* reports per-address use counts each cache-update window so the server
  can run its periodic LRU policy (§5.2.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Host, Simulator
from repro.netsim.events import Event
from repro.obs.tracer import TRACE
from repro.protocol import (
    ClearPolicy,
    ForwardTarget,
    KVBlock,
    KV_PAIRS_PER_PACKET,
    Packet,
    RIPProgram,
)

from .addressing import LogicalSpace
from .app import AppConfig, Task, TaskResult
from .transport import ReliableFlow

__all__ = ["ClientAgent"]

_MISS = object()   # sentinel: key absent from the logical-address memo


class _ChunkState:
    """One in-flight chunk (<= 32 kv pairs) of a task.

    ``keys`` and ``values`` are the columns the chunk sent, the very
    sequences its packet's block was built from: application keys, or
    for a linear task the array indices (a ``range`` for a dense chunk).
    """

    __slots__ = ("offset", "keys", "values", "resolved", "overflowed",
                 "mapped", "awaiting_result")

    def __init__(self, offset: int, keys: Sequence[Any],
                 values: Sequence[int], mapped: bool,
                 awaiting_result: bool):
        self.offset = offset
        self.keys = keys
        self.values = values
        self.mapped = mapped
        self.awaiting_result = awaiting_result
        self.resolved = False
        self.overflowed = False


class _TaskState:
    def __init__(self, task: Task, done: Event,
                 finish: Optional[Callable[[TaskResult], Any]] = None):
        self.task = task
        self.done = done
        self.finish = finish
        self.chunks: Dict[int, _ChunkState] = {}
        self.unresolved = 0
        # Results by key — or, for a dense linear task that reads values
        # back, by position in a preallocated column (TaskResult.column).
        self.values: Optional[Dict[Any, int]] = {}
        self.column: Optional[List[int]] = None
        if task.column is not None and (
                task.expect_result or task.app.program.cntfwd.counts):
            self.values = None
            self.column = [0] * task.size
        self.mapped_pairs = 0
        self.fallback_pairs = 0
        self.overflow_chunks = 0
        self.reply_payload: Any = None

    def assign(self, chunk: _ChunkState, block: KVBlock) -> bool:
        """Slice-assign a dense chunk's result block into the column.

        Applies when the block answers exactly this chunk — its keys are
        ``offset .. offset+n-1`` — and its values need no baseline
        adjustment (any clear policy but lazy).  Every other result is
        extracted and stored by key.  Range keys compare in O(1).
        """
        if self.task.app.program.clear is ClearPolicy.LAZY:
            return False
        offset = chunk.offset
        stop = offset + len(chunk.values)
        keys = range(offset, stop)
        if block.keys != keys and block.keys != list(keys):
            return False
        self.column[offset:stop] = block.values
        return True

    def store(self, values: Dict[Any, int]) -> None:
        """Record one chunk's results, given by key."""
        column = self.column
        if column is None:
            self.values.update(values)
            return
        # Another client's longer tensor may report indices past ours.
        size = len(column)
        for index, value in values.items():
            if 0 <= index < size:
                column[index] = value


class _AppClientState:
    """Shared per-application state (all RPC methods of the app)."""

    def __init__(self):
        self.configs: Dict[int, AppConfig] = {}     # gaid -> config
        self.flows: List[ReliableFlow] = []
        self.next_flow = 0
        self.space = LogicalSpace()
        self.grants: Dict[int, int] = {}            # logical -> physical
        self.logical_to_key: Dict[int, Any] = {}
        self.phys_to_key: Dict[int, Any] = {}
        # Lazy clear (linear apps): last total read per register address,
        # or with no switch per array index.
        self.lazy_baseline: Dict[int, int] = {}
        self.usage_counts: Dict[int, int] = {}      # logical -> window uses
        self.tasks: Dict[int, _TaskState] = {}
        self.round_chunks: Dict[Tuple[int, int, int], int] = {}
        # (gaid, round, offset) -> task_id, for matching multicast results
        # Application hook: called for every multicast result delivered to
        # this host (threshold-reached votes, broadcasts), letting passive
        # participants (e.g. Paxos learners) observe decisions.
        self.broadcast_handler = None
        # Measurement hook: called as fn(n_pairs) whenever a chunk
        # resolves (used by the benchmarks' goodput meters).
        self.resolve_listener = None

    def pick_flow(self) -> ReliableFlow:
        flow = self.flows[self.next_flow]
        self.next_flow = (self.next_flow + 1) % len(self.flows)
        return flow

    def any_config(self) -> AppConfig:
        return next(iter(self.configs.values()))


class ClientAgent:
    """One agent per client host; serves every application on that host."""

    def __init__(self, sim: Simulator, host: Host, tor: str,
                 cal: Calibration = DEFAULT_CALIBRATION):
        self.sim = sim
        self.host = host
        self.tor = tor                      # name of the top-of-rack switch
        self.cal = cal
        self._apps: Dict[str, _AppClientState] = {}
        self._gaid_to_app: Dict[int, str] = {}
        host.set_handler(self._on_packet)
        self.stats = {"results": 0, "overflow_resends": 0, "acks_rx": 0}
        # Coalesced ACKs for server-originated reliable flows:
        # (gaid, server, flow_id) -> list of seqs awaiting flush.
        self._ack_batch: Dict[Tuple[int, str, int], List[int]] = {}
        self._ack_ecn: Dict[Tuple[int, str, int], bool] = {}
        # Header prototypes, one per (gaid, destination): the hot send
        # paths copy one and store the fields that differ.
        self._protos: Dict[Tuple[int, str], Packet] = {}

    # ------------------------------------------------------------------
    # registration (driven by the controller)
    # ------------------------------------------------------------------
    def register_app(self, config: AppConfig, srrt_slots: List[int]) -> None:
        """Attach one application method; flows are created on first call.

        ``srrt_slots`` are switch bitmap slots reserved by the controller,
        one per worker flow (the long-term connections of Figure 1).
        """
        key = config.program.app_name
        state = self._apps.get(key)
        if state is None:
            state = _AppClientState()
            self._apps[key] = state
        if not state.flows:
            def chunk_still_pending(packet, _state=state):
                tstate = _state.tasks.get(packet.task_id)
                if tstate is None:
                    return False
                chunk = tstate.chunks.get(packet.offset)
                return chunk is not None and not chunk.resolved

            for flow_id, slot in enumerate(srrt_slots):
                flow = ReliableFlow(
                    self.sim, self.host, self.tor, srrt=slot,
                    flow_id=flow_id, cal=self.cal,
                    cc_enabled=config.cc_enabled,
                    cc_mode=config.cc_mode,
                    retry_mode=config.program.retry)
                flow.retry_filter = chunk_still_pending
                state.flows.append(flow)
            self.sim.process(self._report_window_loop(state),
                             name=f"report-{key}-{self.host.name}")
        state.configs[config.gaid] = config
        self._gaid_to_app[config.gaid] = key

    def app_state(self, app_key: str) -> _AppClientState:
        return self._apps[app_key]

    def all_flows(self) -> List[ReliableFlow]:
        """Every reliable flow this agent sends on (failover resync)."""
        flows = []
        for state in self._apps.values():
            flows.extend(state.flows)
        return flows

    def set_broadcast_handler(self, app_key: str, handler) -> None:
        """Install ``handler(pkt)`` for every multicast this host receives."""
        self._apps[app_key].broadcast_handler = handler

    # ------------------------------------------------------------------
    # task submission (called by the RPC layer)
    # ------------------------------------------------------------------
    def submit(self, task: Task,
               finish: Optional[Callable[[TaskResult], Any]] = None
               ) -> Event:
        """Send one task; the returned event succeeds with a TaskResult.

        With ``finish``, it succeeds with ``finish(result)`` instead: the
        RPC stub builds its reply there, so a call costs one event.
        """
        config = task.app
        state = self._apps[config.program.app_name]
        done = Event(self.sim)
        if TRACE.enabled:
            # Span recorded at completion time; the exporter re-sorts by
            # start timestamp so late recording never breaks monotonicity.
            sim, t0, where = self.sim, self.sim.now, self.host.name
            task_id = task.task_id

            def _trace_done(_event) -> None:
                if TRACE.enabled:
                    TRACE.record("client.task", t0, sim.now, where,
                                 (task_id,))

            done.add_callback(_trace_done)
        tstate = _TaskState(task, done, finish)
        state.tasks[task.task_id] = tstate
        if config.linear and task.size:
            self._send_linear(state, config, tstate)
        else:
            self._send_map(state, config, tstate)
        if not tstate.chunks and task.payload is not None:
            # A plain (non-INC) call: one payload-only packet through the
            # server, resolved by the server stub's reply.
            self._send_plain(state, config, tstate)
        if not tstate.unresolved:
            self._finish(state, tstate)     # an empty task completes at once
        return done

    def _send_plain(self, state: _AppClientState, config: AppConfig,
                    tstate: _TaskState) -> None:
        task = tstate.task
        chunk = _ChunkState(0, [], [], mapped=False, awaiting_result=True)
        tstate.chunks[0] = chunk
        tstate.unresolved += 1
        pkt = self._base_packet(config, task, 0, KVBlock())
        pkt.is_cross = True
        state.round_chunks[(config.gaid, task.round, 0)] = task.task_id
        state.pick_flow().enqueue(pkt)

    def _finish(self, state: _AppClientState, tstate: _TaskState) -> None:
        """Complete a task whose every chunk resolved, then forget it."""
        task = tstate.task
        if not tstate.done._triggered:
            result = TaskResult(
                task=task, values=tstate.values, column=tstate.column,
                overflow_chunks=tstate.overflow_chunks,
                fallback_pairs=tstate.fallback_pairs,
                mapped_pairs=tstate.mapped_pairs,
                payload=tstate.reply_payload)
            finish = tstate.finish
            tstate.done.succeed(
                result if finish is None else finish(result))
        state.tasks.pop(task.task_id, None)
        # Entries are only ever written under the task's own gaid; a
        # co-located role's task for the same round (an acceptor's
        # CastVote next to this proposer's Propose) keeps its own.
        gaid, round_no = task.app.gaid, task.round
        round_chunks = state.round_chunks
        for offset in tstate.chunks:
            round_chunks.pop((gaid, round_no, offset), None)

    # --- linear (SyncAgtr / index-addressed counters) -------------------
    def _send_linear(self, state: _AppClientState, config: AppConfig,
                     tstate: _TaskState) -> None:
        task = tstate.task
        dense = task.column is not None
        items = task.column if dense else task.items
        # Software-only deployments have no register region; addresses are
        # placeholders (the packets take the is_cross path anyway).
        half = config.active_region_size or 1
        parity = task.round % 2 if config.shadow else 0
        base = config.value_region.base + parity * half
        shadow_offset = 0
        if config.shadow:
            shadow_offset = half if parity == 0 else -half
        indexed = task.indexed
        counts = config.program.cntfwd.counts
        has_switch = config.has_switch
        # One chunk per sparse index when counting (each packet needs a
        # well-defined counter register), else 32 pairs per packet.
        chunk_size = 1 if indexed and counts else KV_PAIRS_PER_PACKET
        awaiting = task.expect_result or counts
        chunks = tstate.chunks
        round_chunks = state.round_chunks
        gaid, round_no, task_id = config.gaid, task.round, task.task_id
        for offset in range(0, task.size, chunk_size):
            chunk_items = items[offset:offset + chunk_size]
            tstate.unresolved += 1
            tstate.mapped_pairs += len(chunk_items)
            if chunk_size == 1:
                (first_index, value), = chunk_items
                indices = [first_index]
                values = [value]
                addrs = [base + first_index % half]
            elif dense:
                # The slice of the task's column is the value column; keys
                # and (unless the chunk wraps its region half) addresses
                # are ranges, which the switch takes as one register row.
                first_index = offset
                indices = range(offset, offset + len(chunk_items))
                values = chunk_items
                start = offset % half
                stop = start + len(chunk_items)
                addrs = range(base + start, base + stop) if stop <= half \
                    else [base + index % half for index in indices]
            else:
                indices = [item[0] for item in chunk_items]
                values = [item[1] for item in chunk_items]
                first_index = indices[0]
                addrs = [base + index % half for index in indices]
            chunks[offset] = _ChunkState(offset, indices, values, mapped=True,
                                         awaiting_result=awaiting)
            kv = KVBlock.from_columns(addrs, values, mapped_mask=-1,
                                      keys=indices)
            pkt = self._base_packet(config, task, offset, kv)
            if not indexed:
                pkt.linear_base = kv.addrs[0]
            pkt.shadow_offset = shadow_offset
            if counts:
                # The chunk's CntFwd counter: a register, or with no
                # switch the server's software counter of that number.
                counter = first_index if indexed else first_index // 32
                pkt.is_cnf = has_switch
                pkt.cnt_index = config.counter_addr(counter) \
                    if has_switch else counter
            pkt.is_cross = not has_switch
            round_chunks[(gaid, round_no, offset)] = task_id
            state.pick_flow().enqueue(pkt)

    # --- map-addressed (AsyncAgtr / KeyValue / Agreement) ----------------
    def _send_map(self, state: _AppClientState, config: AppConfig,
                  tstate: _TaskState) -> None:
        task = tstate.task
        prog = config.program
        emit = self._emit_map_chunk
        if not prog.uses_map and config.has_switch:
            # Pure routing methods (e.g. a CntFwd-to-ALL broadcast): the
            # kv pairs are opaque to the switch, no addressing needed.
            for start in range(0, len(task.items), KV_PAIRS_PER_PACKET):
                chunk_items = task.items[start:start + KV_PAIRS_PER_PACKET]
                emit(state, config, tstate, [0] * len(chunk_items),
                     [value for _, value in chunk_items],
                     [key for key, _ in chunk_items], start, cross=False)
            return
        # Classification fills (addr, value, key) columns — mapped pairs
        # carry the granted physical address, cross pairs the logical one
        # (0 if collided) — so emitting a chunk hands its columns straight
        # to a KVBlock, with no per-pair object in between.
        #
        # Mapped pairs are packed first-fit by memory segment: a packet
        # may access each segment once (§5.2.2 "implementation on the
        # switch"), so packet j carries the j-th mapped pair of every
        # segment, in task order.  That is the fewest packets the rule
        # allows, and a key's pairs (one register, one segment) still go
        # out in order.  The chip has at most KV_PAIRS_PER_PACKET segments
        # (``switchsim.registers``), so no packet outgrows its slots.
        # Counting applications (locks, votes) send one key per packet so
        # that each packet has a well-defined counter register: packing
        # over a single segment does exactly that.
        counts = prog.cntfwd.counts
        n_segments = 1 if counts else self.cal.memory_segments
        segment_fill = [0] * n_segments
        m_packets: List[Tuple[List[int], List[int], List[Any]]] = []
        n_packets = 0
        x_addrs: List[int] = []
        x_values: List[int] = []
        x_keys: List[Any] = []
        # Per-item loop over every task (hot): hoist the state lookups and
        # consult the address-space memo directly (one dict probe) so only
        # first-seen keys pay the resolve() call.
        resolve = state.space.resolve
        memo_get = state.space._memo.get
        logical_to_key = state.logical_to_key
        usage_counts = state.usage_counts
        grants_get = state.grants.get
        phys_to_key = state.phys_to_key
        has_switch = config.has_switch
        for key, value in task.items:
            logical = memo_get(key, _MISS)
            if logical is _MISS:
                logical = resolve(key)
            if logical is None or not has_switch:
                x_addrs.append(0)
                x_values.append(value)
                x_keys.append(key)
                continue
            logical_to_key[logical] = key
            if logical in usage_counts:
                usage_counts[logical] += 1
            else:
                usage_counts[logical] = 1
            phys = grants_get(logical)
            if phys is None:
                x_addrs.append(logical)
                x_values.append(value)
                x_keys.append(key)
            else:
                phys_to_key[phys] = key
                segment = phys % n_segments
                j = segment_fill[segment]
                segment_fill[segment] = j + 1
                if j < n_packets:
                    addrs, values, keys = m_packets[j]
                    addrs.append(phys)
                    values.append(value)
                    keys.append(key)
                else:
                    m_packets.append(([phys], [value], [key]))
                    n_packets += 1

        offset = 0
        for addrs, values, keys in m_packets:
            offset = emit(state, config, tstate, addrs, values, keys, offset,
                          cross=False, cnt_index=addrs[0])
        x_size = 1 if counts else KV_PAIRS_PER_PACKET
        for start in range(0, len(x_addrs), x_size):
            stop = start + x_size
            offset = emit(state, config, tstate, x_addrs[start:stop],
                          x_values[start:stop], x_keys[start:stop], offset,
                          cross=True)

    def _emit_map_chunk(self, state: _AppClientState, config: AppConfig,
                        tstate: _TaskState, addrs: List[int],
                        values: List[int], keys: List[Any], offset: int,
                        cross: bool, cnt_index: int = 0) -> int:
        """Send one non-empty chunk given as fresh column lists."""
        task = tstate.task
        n_pairs = len(addrs)
        # Counting applications (locks, votes) complete on the threshold
        # result, never on a bare transport ACK: an absorbed attempt must
        # keep its chunk pending (blocking-lock semantics).
        awaiting = task.expect_result or config.program.cntfwd.counts
        chunk = _ChunkState(offset, keys, values, mapped=not cross,
                            awaiting_result=awaiting)
        tstate.chunks[offset] = chunk
        tstate.unresolved += 1
        if cross:
            tstate.fallback_pairs += n_pairs
        else:
            tstate.mapped_pairs += n_pairs
        kv = KVBlock.from_columns(addrs, values,
                                  mapped_mask=0 if cross else -1, keys=keys)
        pkt = self._base_packet(config, task, offset, kv)
        pkt.is_cross = cross
        if not cross and config.program.cntfwd.counts:
            pkt.is_cnf = True
            pkt.cnt_index = cnt_index
        state.round_chunks[(config.gaid, task.round, offset)] = task.task_id
        state.pick_flow().enqueue(pkt)
        return offset + n_pairs

    def _base_packet(self, config: AppConfig, task: Task, offset: int,
                     kv: KVBlock) -> Packet:
        proto = self._protos.get((config.gaid, config.server))
        if proto is None:
            proto = self._prototype(config.gaid, config.server)
        pkt = proto.copy(kv)
        pkt.task_id = task.task_id
        pkt.offset = offset
        pkt.task_total = task.size
        pkt.round = task.round
        pkt.bitmap = (1 << len(kv.addrs)) - 1     # every slot selected
        if offset == 0:
            pkt.payload = task.payload
            pkt.payload_bytes = task.payload_bytes
        return pkt

    def _prototype(self, gaid: int, dst: str) -> Packet:
        """Build (through the validating constructor, once) and keep the
        header every hot-path packet from this host to ``dst`` copies."""
        proto = self._protos[(gaid, dst)] = Packet(
            gaid=gaid, src=self.host.name, dst=dst)
        return proto

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        app_key = self._gaid_to_app.get(pkt.gaid)
        if app_key is None:
            return
        state = self._apps[app_key]
        config = state.configs[pkt.gaid]
        if pkt.grants or pkt.revokes:
            self._apply_grants(state, pkt)
        if pkt.is_ack:
            self._on_server_ack(state, pkt)
            return
        if pkt.is_mcast and state.broadcast_handler is not None:
            state.broadcast_handler(pkt)
        if pkt.is_sa:
            self._on_server_reply(state, config, pkt)
            return
        if pkt.is_mcast:       # a switch multicast: a round's result
            self._record_result(state, config, pkt, from_server=False)
            return
        if pkt.src == self.host.name:
            self._on_own_bounce(state, config, pkt)

    def _apply_grants(self, state: _AppClientState, pkt: Packet) -> None:
        for logical, phys in pkt.grants:
            state.grants[logical] = phys
            key = state.logical_to_key.get(logical)
            if key is not None:
                state.phys_to_key[phys] = key
        for logical in pkt.revokes:
            phys = state.grants.pop(logical, None)
            if phys is not None:
                state.phys_to_key.pop(phys, None)

    def _on_server_ack(self, state: _AppClientState, pkt: Packet) -> None:
        self.stats["acks_rx"] += 1
        flow = state.flows[pkt.ack_flow]
        for seq in pkt.acks:
            original = flow.ack(seq, ecn=pkt.ecn_echo)
            if original is not None:
                self._chunk_acked(state, original, values=None)

    def _on_server_reply(self, state: _AppClientState, config: AppConfig,
                         pkt: Packet) -> None:
        # Acknowledge the server's reliable flow (coalesced, §4's worker
        # threads batch outbound ACKs to amortise per-packet cost).
        self._queue_ack(config, pkt)
        # A reply may also acknowledge our own outstanding packets.
        if pkt.acks:
            flow = state.flows[pkt.ack_flow]
            for seq in pkt.acks:
                original = flow.ack(seq, ecn=pkt.ecn_echo)
                if original is not None and not pkt.kv.addrs:
                    self._chunk_acked(state, original, values=None)
        if pkt.kv.addrs or pkt.is_clr or pkt.payload is not None:
            corrected = not pkt.is_of and pkt.is_mcast
            self._record_result(state, config, pkt,
                                from_server=True, corrected=corrected)

    # ------------------------------------------------------------------
    def _queue_ack(self, config: AppConfig, pkt: Packet) -> None:
        key = (pkt.gaid, config.server, pkt.flow_id)
        batch = self._ack_batch.get(key)
        if batch is None:
            batch = self._ack_batch[key] = []
            self.sim.schedule(self.cal.ack_batch_delay_s,
                              self._flush_acks, key)
        batch.append(pkt.seq)
        if pkt.ecn:
            self._ack_ecn[key] = True
        if len(batch) >= self.cal.ack_batch_pkts:
            self._flush_acks(key)

    def _flush_acks(self, key: Tuple[int, str, int]) -> None:
        batch = self._ack_batch.pop(key, None)
        if not batch:
            return
        gaid, server, flow_id = key
        proto = self._protos.get((gaid, server))
        if proto is None:
            proto = self._prototype(gaid, server)
        ack = proto.copy()
        ack.is_ack = True
        ack.acks = tuple(batch)
        ack.ack_flow = flow_id
        if self._ack_ecn.pop(key, False):
            ack.ecn = True
        self.host.send(ack, self.tor)

    def _on_own_bounce(self, state: _AppClientState, config: AppConfig,
                       pkt: Packet) -> None:
        flow = state.flows[pkt.flow_id]
        # A bounced packet carries its own uplink mark plus the switch's
        # recorded data-path state; both concern this flow's direction.
        flow.ack(pkt.seq, ecn=pkt.ecn or pkt.ecn_echo)
        self._record_result(state, config, pkt, from_server=False)

    # ------------------------------------------------------------------
    def _record_result(self, state: _AppClientState, config: AppConfig,
                       pkt: Packet, from_server: bool,
                       corrected: bool = False) -> None:
        # Our own packets (bounces, server unicasts) carry the exact task
        # id; only cross-client multicast results need the (round, offset)
        # correlation, where the trigger sender's task id differs.
        if pkt.task_id in state.tasks:
            task_id = pkt.task_id
        else:
            task_id = state.round_chunks.get(
                (pkt.gaid, pkt.round, pkt.offset), pkt.task_id)
        tstate = state.tasks.get(task_id)
        if tstate is None:
            return
        if from_server and pkt.payload is not None:
            tstate.reply_payload = pkt.payload
        chunk = tstate.chunks.get(pkt.offset)
        if chunk is None or chunk.resolved:
            return
        # Our own pending packet for this chunk is implicitly acknowledged
        # by the round result (threshold-reached forward, §5.1).  The
        # congestion signal for our flows is the switch echo, plus the
        # uplink mark when the result is another client's bounced data
        # packet (shared uplink direction) — never the server's downlink.
        ecn_signal = pkt.ecn_echo or (pkt.ecn and not pkt.is_sa)
        chunk_id = (tstate.task.task_id, pkt.offset)
        for flow in state.flows:
            if flow.ack_chunk(chunk_id, ecn=ecn_signal):
                break

        if pkt.is_of and not corrected:
            # Overflow sentinel: give up this result and re-execute the
            # chunk through the server in software (§5.2.1).
            if not chunk.overflowed:
                chunk.overflowed = True
                tstate.overflow_chunks += 1
                self._resend_overflow(state, config, tstate, chunk,
                                      self._unapplied(config, chunk, pkt))
            return

        if tstate.column is not None and tstate.assign(chunk, pkt.kv):
            values: Dict[Any, int] = {}    # already in the result column
        else:
            values = self._extract_values(state, config, pkt,
                                          corrected=corrected)
        self._resolve_chunk(state, tstate, chunk, values)

    def _extract_values(self, state: _AppClientState, config: AppConfig,
                        pkt: Packet, corrected: bool) -> Dict[Any, int]:
        block = pkt.kv
        keys = block.keys
        values = block.values
        mapped_mask = block.mapped_mask
        # Lazy clear: subtract the last total read, per register address
        # or, with no switch, per array index.
        by_index = not config.has_switch
        lazy = config.program.clear is ClearPolicy.LAZY and \
            (mapped_mask or by_index)
        if not lazy and keys is not None and None not in keys:
            # Fast path (the common linear/keyed result): every slot has
            # an explicit key and no baseline adjustment applies, so the
            # whole block folds in one C-level zip.  Duplicate keys keep
            # last-slot-wins ordering, same as the loop below.
            return dict(zip(keys, values))
        out: Dict[Any, int] = {}
        addrs = block.addrs
        phys_to_key = state.phys_to_key
        linear = config.linear
        offset = pkt.offset
        for slot in range(len(values)):
            key = keys[slot] if keys is not None else None
            mapped = mapped_mask >> slot & 1
            if key is None:
                if mapped:
                    key = phys_to_key.get(addrs[slot])
                if key is None:
                    if not linear:
                        continue
                    key = offset + slot
            value = values[slot]
            if lazy:
                where = key if by_index else addrs[slot]
                if corrected:
                    state.lazy_baseline[where] = 0
                else:
                    baseline = state.lazy_baseline.get(where, 0)
                    state.lazy_baseline[where] = value
                    value = value - baseline
            out[key] = value
        return out

    def _resolve_chunk(self, state: _AppClientState, tstate: _TaskState,
                       chunk: _ChunkState,
                       values: Optional[Dict[Any, int]]) -> None:
        if chunk.resolved:
            return
        if chunk.awaiting_result:
            if values is None:
                return  # ACKed but still waiting for data
            tstate.store(values)
        chunk.resolved = True
        tstate.unresolved -= 1
        self.stats["results"] += 1
        if state.resolve_listener is not None:
            state.resolve_listener(len(chunk.values))
        if not tstate.unresolved:
            self._finish(state, tstate)

    def _chunk_acked(self, state: _AppClientState, original: Packet,
                     values: Optional[Dict[Any, int]]) -> None:
        tstate = state.tasks.get(original.task_id)
        if tstate is None:
            return
        chunk = tstate.chunks.get(original.offset)
        if chunk is None:
            return
        if not chunk.awaiting_result:
            self._resolve_chunk(state, tstate, chunk, None)
        elif values:
            self._resolve_chunk(state, tstate, chunk, values)

    # ------------------------------------------------------------------
    @staticmethod
    def _unapplied(config: AppConfig, chunk: _ChunkState,
                   result: Packet) -> int:
        """Mask of the chunk's slots the switch did not apply.

        The switch reports them in the result's ``of_mask``: the slots
        whose register overflowed or was already sticky (DESIGN.md
        §4.1(1)).  When the result answers this chunk slot for slot, those
        are the ones owed; otherwise, and for a counting linear chunk,
        whose server re-reduces every client's whole raw column, all of
        them are.
        """
        if (config.linear and config.program.cntfwd.counts) or \
                result.kv.keys != chunk.keys:
            return (1 << len(chunk.values)) - 1
        return result.of_mask

    def _resend_overflow(self, state: _AppClientState, config: AppConfig,
                         tstate: _TaskState, chunk: _ChunkState,
                         owed: int) -> None:
        """Replay a chunk's raw data through the server (§5.2.1).

        The replay's bitmap selects the ``owed`` slots: the server
        applies only those and answers a query for every slot.
        """
        self.stats["overflow_resends"] += 1
        values = chunk.values
        kv = KVBlock.from_columns([0] * len(values), values,
                                  mapped_mask=0, keys=list(chunk.keys))
        pkt = Packet(
            gaid=config.gaid, src=self.host.name, dst=config.server,
            kv=kv, is_of=True, is_cross=True,
            task_id=tstate.task.task_id,
            offset=chunk.offset, task_total=tstate.task.size,
            round=tstate.task.round, bitmap=owed)
        state.pick_flow().enqueue(pkt)

    # ------------------------------------------------------------------
    def _report_window_loop(self, state: _AppClientState):
        """Periodically ship use counts to the server (periodic LRU)."""
        while True:
            yield self.sim.timeout(self.cal.cache_update_window_s)
            if not state.usage_counts:
                continue
            config = state.any_config()
            if config.linear or not config.has_switch:
                state.usage_counts = {}
                continue
            counts, state.usage_counts = state.usage_counts, {}
            pkt = Packet(
                gaid=config.gaid, src=self.host.name, dst=config.server,
                is_cross=True, payload=("usage-report", counts),
                payload_bytes=8 * len(counts))
            self.host.send(pkt, self.tor)
