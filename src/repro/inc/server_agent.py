"""The per-host server agent (paper §5).

The server agent is the authority for one or more applications:

* it owns the logical -> physical mapping and hands out grants
  piggybacked on ACKs (§5.2.2, "multiple clients of a single
  application");
* it executes every RIP in software for unmapped/collided keys and for
  deployments without a programmable switch (the fallback guarantee of
  §3.2);
* it backs up and returns synchronous-aggregation rounds under the
  ``copy`` clear policy, clearing switch registers on the return path;
* it reconstructs exact results for overflowed chunks from the clients'
  raw replays (§5.2.1);
* it runs the periodic cache-update window: evictions, register
  drain-back, and grant revocations.

Late cross-path traffic for keys that already hold a mapping is folded
into the owning register through an atomic control-plane add
(:meth:`~repro.switchsim.switch.NetRPCSwitch.ctrl_add`), so each key has
exactly one authoritative counter/accumulator at any time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Host, Simulator
from repro.obs.tracer import TRACE
from repro.protocol import (
    AggOp,
    ClearPolicy,
    ForwardTarget,
    KVBlock,
    Packet,
    RIPProgram,
    StreamOp,
)

from .addressing import logical_address
from .app import AppConfig
from .cache import make_policy
from .incmap import SoftwareINCMap
from .memory import MemoryManager
from .transport import ReliableFlow

__all__ = ["ServerAgent"]


def _payload_size(payload: Any) -> int:
    """Byte cost of an opaque payload object on the wire."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, tuple):
        return sum(_payload_size(part) for part in payload
                   if isinstance(part, (bytes, bytearray))) or 16
    return 16


def _result_block(values: Dict[Any, int]) -> KVBlock:
    """Software-computed results as an unmapped kv block (addr 0)."""
    return KVBlock.from_columns([0] * len(values), values.values(),
                                keys=list(values))


class _McastFlow:
    """A pool of reliable flows whose packets every client must ACK.

    Multiple parallel flows (the server agent's worker threads, §4) keep
    the return stream from being window-limited by a single flow's
    cwnd/RTT product.
    """

    def __init__(self, flows: List[ReliableFlow], clients: Tuple[str, ...]):
        self.flows = flows
        self.clients = clients
        self._next = 0
        self._waiting: Dict[Tuple[int, int], Set[str]] = {}

    def send(self, packet: Packet) -> None:
        packet.is_mcast = True
        flow = self.flows[self._next]
        self._next = (self._next + 1) % len(self.flows)
        flow.enqueue(packet)
        self._waiting[(flow.flow_id, packet.seq)] = set(self.clients)

    def client_ack(self, flow_id: int, seq: int, client: str,
                   ecn: bool) -> None:
        waiting = self._waiting.get((flow_id, seq))
        if waiting is None:
            return
        waiting.discard(client)
        if not waiting:
            del self._waiting[(flow_id, seq)]
            for flow in self.flows:
                if flow.flow_id == flow_id:
                    flow.ack(seq, ecn=ecn)
                    break


class _AppServerState:
    def __init__(self, app_key: str):
        self.app_key = app_key
        self.configs: Dict[int, AppConfig] = {}
        self.soft = SoftwareINCMap()
        self.mm: Optional[MemoryManager] = None
        self.switches: List[Any] = []
        self.mcast: Optional[_McastFlow] = None
        self.unicast: Dict[str, ReliableFlow] = {}
        self.flow_by_id: Dict[int, ReliableFlow] = {}
        self.n_mcast_flows = 0
        self.seen: Dict[Tuple[str, int], Set[int]] = {}
        self.acked: Dict[Tuple[str, int], Set[int]] = {}
        self.pending_grants: Dict[str, List[Tuple[int, int]]] = {}
        self.pending_revokes: List[int] = []
        self.rounds: Dict[int, Dict[str, Any]] = {}
        # Chunks whose return stream already went out, so a re-triggered
        # retransmission (lost-trigger recovery) is not emitted twice.
        self.sync_emitted: Set[Tuple[int, int]] = set()
        self.overflow_buf: Dict[Tuple[int, int], Dict[str, list]] = {}
        self.key_of_logical: Dict[int, Any] = {}
        # Memoized per-key mapping outcome: the key's logical address when
        # it owns it, -1 when it hash-collided (software path forever).
        self.map_outcome: Dict[Any, int] = {}
        self.on_round: Optional[Callable[[int, Dict[Any, int]], None]] = None
        self.on_data: Optional[Callable[[str, Packet], None]] = None
        self.on_call: Optional[Callable[[str, int, Any], Any]] = None

    def any_config(self) -> AppConfig:
        return next(iter(self.configs.values()))


class ServerAgent:
    """One agent per server host."""

    def __init__(self, sim: Simulator, host: Host, tor: str,
                 cal: Calibration = DEFAULT_CALIBRATION):
        self.sim = sim
        self.host = host
        self.tor = tor
        self.cal = cal
        self._apps: Dict[str, _AppServerState] = {}
        self._gaid_to_app: Dict[int, str] = {}
        host.set_handler(self._on_packet)
        self.stats = {"data_rx": 0, "software_pairs": 0, "replays": 0,
                      "evictions": 0, "corrected_chunks": 0,
                      "unprocessed_rx": 0}

    # ------------------------------------------------------------------
    # registration (driven by the controller)
    # ------------------------------------------------------------------
    def register_app(self, config: AppConfig, switches: List[Any],
                     mcast_srrts: List[int],
                     unicast_srrts: Dict[str, int]) -> None:
        key = config.program.app_name
        state = self._apps.get(key)
        if state is None:
            state = _AppServerState(key)
            self._apps[key] = state
            state.switches = list(switches)
            mcast_flows = [
                ReliableFlow(self.sim, self.host, self.tor, srrt=slot,
                             flow_id=index, cal=self.cal,
                             cc_enabled=config.cc_enabled,
                             cc_mode=config.cc_mode)
                for index, slot in enumerate(mcast_srrts)]
            state.mcast = _McastFlow(mcast_flows, config.clients)
            base = len(mcast_flows)
            for index, client in enumerate(config.clients):
                flow = ReliableFlow(
                    self.sim, self.host, self.tor,
                    srrt=unicast_srrts[client], flow_id=base + index,
                    cal=self.cal, cc_enabled=config.cc_enabled,
                    cc_mode=config.cc_mode)
                state.unicast[client] = flow
            state.flow_by_id = {f.flow_id: f for f in mcast_flows}
            state.flow_by_id.update(
                {f.flow_id: f for f in state.unicast.values()})
            state.n_mcast_flows = base
        if state.mm is None and not config.linear:
            # Map-addressed methods need the logical->physical manager;
            # created on the first such method of the app.
            state.mm = MemoryManager(
                config.value_region,
                policy=make_policy(config.cache_policy),
                quarantine_s=self.cal.mapping_quarantine_s)
            self.sim.process(self._window_loop(state),
                             name=f"window-{key}")
        state.configs[config.gaid] = config
        self._gaid_to_app[config.gaid] = key

    def app_state(self, app_key: str) -> _AppServerState:
        return self._apps[app_key]

    def all_flows(self) -> List[Any]:
        """Every reliable flow this agent sends on (failover resync)."""
        flows = []
        for state in self._apps.values():
            flows.extend(state.flow_by_id.values())
        return flows

    def set_round_handler(self, app_key: str,
                          fn: Callable[[int, Dict[Any, int]], None]) -> None:
        self._apps[app_key].on_round = fn

    def set_data_handler(self, app_key: str,
                         fn: Callable[[str, Packet], None]) -> None:
        self._apps[app_key].on_data = fn

    def set_call_handler(self, app_key: str,
                         fn: Callable[[str, int, Any], Any]) -> None:
        """Handler for plain RPC calls: fn(client, gaid, request) -> reply."""
        self._apps[app_key].on_call = fn

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet, _link) -> None:
        app_key = self._gaid_to_app.get(pkt.gaid)
        if app_key is None:
            return
        state = self._apps[app_key]
        config = state.configs[pkt.gaid]

        if pkt.is_ack:
            self._route_ack(state, pkt)
            return
        if isinstance(pkt.payload, tuple) and pkt.payload and \
                pkt.payload[0] == "usage-report":
            if state.mm is not None:
                for logical, count in pkt.payload[1].items():
                    state.mm.note_use(logical, count)
            return

        if config.has_switch and not pkt.is_cross and not pkt.is_of \
                and not getattr(pkt, "switch_processed", False) \
                and (pkt.is_cnf or pkt.kv.any_mapped):
            # Raw INC data that slipped past a cold switch: during the
            # reboot-to-reinstall failover window the admission lookup
            # misses and packets are forwarded here unprocessed.  Acting
            # on one would emit a partial value as a round aggregate (a
            # silent wrong answer) — drop it without an ACK instead, so
            # the sender retransmits after the controller re-installs.
            self.stats["unprocessed_rx"] += 1
            if TRACE.enabled:
                TRACE.instant("server.gate", self.sim.now, self.host.name,
                              (pkt.gaid, pkt.seq))
            return

        self.stats["data_rx"] += 1
        if TRACE.enabled:
            TRACE.instant("server.rx", self.sim.now, self.host.name,
                          (pkt.gaid, pkt.seq))
        flow_key = (pkt.src, pkt.flow_id)
        seen = state.seen.setdefault(flow_key, set())
        if pkt.seq in seen:
            if pkt.seq in state.acked.get(flow_key, set()):
                self._send_ack(state, config, pkt)
            return
        seen.add(pkt.seq)

        cost = self.cal.server_sw_inc_pkt_cpu_s
        if pkt.is_of and not pkt.is_cross:
            # An overflow-marked packet straight off the switch (e.g. a
            # sentinel-carrying round trigger), not a client's raw replay.
            self._on_switch_processed(state, config, pkt)
        elif pkt.is_of:
            self.host.run_on_core(cost, self._on_overflow_arg,
                                  (state, config, pkt))
        elif pkt.is_cross:
            self.host.run_on_core(cost, self._on_cross_arg,
                                  (state, config, pkt))
        else:
            self._on_switch_processed(state, config, pkt)

    def _on_cross_arg(self, args) -> None:
        self._on_cross(*args)

    def _on_overflow_arg(self, args) -> None:
        self._on_overflow_replay(*args)

    # ------------------------------------------------------------------
    def _route_ack(self, state: _AppServerState, pkt: Packet) -> None:
        if pkt.ack_flow < state.n_mcast_flows:
            for seq in pkt.acks:
                state.mcast.client_ack(pkt.ack_flow, seq, pkt.src, pkt.ecn)
            return
        flow = state.flow_by_id.get(pkt.ack_flow)
        if flow is not None:
            for seq in pkt.acks:
                flow.ack(seq, ecn=pkt.ecn)

    # ------------------------------------------------------------------
    def _send_ack(self, state: _AppServerState, config: AppConfig,
                  pkt: Packet, extra_grants: Tuple = ()) -> None:
        grants = tuple(state.pending_grants.pop(pkt.src, ())) + extra_grants
        revokes = tuple(state.pending_revokes)
        ack = Packet(gaid=pkt.gaid, src=self.host.name, dst=pkt.src,
                     is_ack=True, acks=(pkt.seq,), ack_flow=pkt.flow_id,
                     grants=grants, revokes=revokes)
        state.acked.setdefault((pkt.src, pkt.flow_id), set()).add(pkt.seq)
        self.host.send(ack, self.tor)

    def _reply(self, state: _AppServerState, config: AppConfig, client: str,
               pkt_fields: dict) -> None:
        """Send a reliable unicast reply (is_sa data packet) to a client."""
        reply = Packet(gaid=pkt_fields.pop("gaid"), src=self.host.name,
                       dst=client, is_sa=True, **pkt_fields)
        reply.select_all_slots()
        grants = state.pending_grants.pop(client, None)
        if grants:
            reply.grants = tuple(grants)
        if state.pending_revokes:
            reply.revokes = tuple(state.pending_revokes)
        state.unicast[client].enqueue(reply)

    # ------------------------------------------------------------------
    # switch-processed data (mapped packets that reached the server)
    # ------------------------------------------------------------------
    def _on_switch_processed(self, state: _AppServerState, config: AppConfig,
                             pkt: Packet) -> None:
        prog = config.program
        if state.on_data is not None and pkt.payload is not None:
            state.on_data(pkt.src, pkt)
        if pkt.is_cnf and config.linear:
            # A SyncAgtr round chunk under the copy policy: back it up and
            # immediately send the clearing return stream (Figure 5).
            self._on_sync_trigger(state, config, pkt)
            return
        if prog.clear is ClearPolicy.COPY and pkt.kv.any_mapped:
            # A copy-clearing method (e.g. lock Release) detoured here for
            # backup: the return stream clears the registers on its way
            # back to the caller.
            ret = Packet(gaid=pkt.gaid, src=self.host.name, dst=pkt.src,
                         is_sa=True, is_clr=True,
                         kv=pkt.kv.copy(),
                         acks=(pkt.seq,), ack_flow=pkt.flow_id,
                         task_id=pkt.task_id, offset=pkt.offset,
                         round=pkt.round)
            ret.select_all_slots()
            state.acked.setdefault((pkt.src, pkt.flow_id), set()).add(
                pkt.seq)
            keys = pkt.kv.keys
            if keys is not None:
                for key in keys:
                    if key is not None:
                        state.soft.clear(key)
                        state.soft.clear_counter(key)
            state.unicast[pkt.src].enqueue(ret)
            return
        self._send_ack(state, config, pkt)

    def _on_sync_trigger(self, state: _AppServerState, config: AppConfig,
                         pkt: Packet) -> None:
        if (pkt.round, pkt.offset) in state.sync_emitted:
            # The return for this chunk is already (re)transmitting on the
            # reliable multicast flow; ignore the duplicate trigger.
            return
        state.sync_emitted.add((pkt.round, pkt.offset))
        if len(state.sync_emitted) > 1 << 17:
            state.sync_emitted.clear()  # bounded memory; ancient entries
        ret = Packet(gaid=pkt.gaid, src=self.host.name, dst=config.clients[0],
                     is_sa=True, is_clr=True, is_cnf=True,
                     cnt_index=pkt.cnt_index, is_of=pkt.is_of,
                     kv=pkt.kv.copy(),
                     linear_base=pkt.linear_base,
                     task_id=pkt.task_id, offset=pkt.offset,
                     task_total=pkt.task_total, round=pkt.round)
        ret.select_all_slots()
        state.mcast.send(ret)
        if pkt.is_of:
            return  # corrected result will follow from the raw replays
        self._store_round_chunk(state, pkt, pkt.kv.values)

    def _store_round_chunk(self, state: _AppServerState, pkt: Packet,
                           values: Sequence[int]) -> None:
        """Fold one chunk's aggregate (the value column, array index
        ``pkt.offset`` onwards) into its round for the round handler.

        Nobody else reads the round store, so with no handler bound it
        stays empty; a handler therefore sees only the rounds whose first
        chunk arrived after it was bound.
        """
        if state.on_round is None:
            return
        info = state.rounds.setdefault(
            pkt.round, {"values": {}, "pairs": 0, "total": pkt.task_total})
        info["values"].update(zip(range(pkt.offset, pkt.offset + len(values)),
                                  values))
        info["pairs"] += len(values)
        if info["total"] and info["pairs"] >= info["total"]:
            done = state.rounds.pop(pkt.round)
            state.on_round(pkt.round, done["values"])

    # ------------------------------------------------------------------
    # software (cross) path
    # ------------------------------------------------------------------
    def _on_cross(self, state: _AppServerState, config: AppConfig,
                  pkt: Packet) -> None:
        prog = config.program
        if isinstance(pkt.payload, tuple) and pkt.payload and \
                pkt.payload[0] == "rpc-call" and not pkt.kv:
            # A plain (non-INC) call: hand it to the server stub and
            # carry its reply back on the unicast return flow.
            self._send_ack(state, config, pkt)
            reply_payload: Any = ("rpc-reply", b"")
            if state.on_call is not None:
                reply_payload = ("rpc-reply",
                                 state.on_call(pkt.src, pkt.gaid,
                                               pkt.payload[1]))
            self._reply(state, config, pkt.src,
                        dict(gaid=pkt.gaid, kv=[], task_id=pkt.task_id,
                             offset=pkt.offset, round=pkt.round,
                             payload=reply_payload,
                             payload_bytes=_payload_size(reply_payload)))
            return
        if state.on_data is not None and pkt.payload is not None:
            state.on_data(pkt.src, pkt)
        values: Dict[Any, int] = {}
        replay_pairs: List[Tuple[int, Any, int]] = []
        grants: List[Tuple[int, int]] = []
        absorbed = False
        self.stats["software_pairs"] += len(pkt.kv)
        # Hot per-kv loop: the common already-granted case is inlined
        # (memoized outcome + manager lookup); misses, evicted mappings,
        # and fresh grants fall back to the full _mapping_for path.
        switch_path = state.mm is not None and config.has_switch
        mapping_for = self._mapping_for
        outcome_get = state.map_outcome.get
        mm_lookup = state.mm.lookup if state.mm is not None else None
        replay_append = replay_pairs.append
        block = pkt.kv
        keys_col = block.keys
        values_col = block.values
        for index in range(len(values_col)):
            key = keys_col[index] if keys_col is not None else None
            value = values_col[index]
            phys = None
            if switch_path:
                outcome = outcome_get(key)
                if outcome is None:
                    phys = mapping_for(state, config, key, grants)
                elif outcome >= 0:
                    phys = mm_lookup(outcome)
                    if phys is None:
                        phys = mapping_for(state, config, key, grants)
            if phys is not None:
                replay_append((phys, key, value))
                continue
            if prog.agg.is_float:
                # Fp software path: values are ordered encodings; the
                # float64 shadow accumulator is the exact executor.
                # (Validation forbids Stream.modify and LAZY for fp.)
                codec = config.codec
                if prog.uses_add_to:
                    if prog.agg is AggOp.FADD:
                        state.soft.fadd_to(key, value, codec)
                    else:
                        state.soft.fmax_to(key, value, codec)
                if prog.uses_get:
                    values[key] = state.soft.fget(key, codec)
                if prog.cntfwd.counts:
                    # Fp accumulators never double as counters — always
                    # the side counter, mirroring the switch pipeline.
                    if state.soft.count_forward(key, prog.cntfwd.threshold):
                        values.setdefault(key, state.soft.fget(key, codec))
                    else:
                        absorbed = True
                if prog.clear is ClearPolicy.COPY and not prog.cntfwd.counts:
                    values.setdefault(key, state.soft.fget(key, codec))
                    state.soft.fclear(key)
                    state.soft.clear_counter(key)
                continue
            if prog.modify_op is not StreamOp.NOP:
                value = state.soft.modify(prog.modify_op, [value],
                                          prog.modify_para)[0]
            if prog.uses_add_to:
                state.soft.add_to(key, value)
            if prog.uses_get:
                values[key] = state.soft.get(key)
            if prog.cntfwd.counts:
                if self._software_count(state, prog, key):
                    values.setdefault(key, state.soft.get(key))
                else:
                    absorbed = True  # below threshold: drop, like the switch
            if prog.clear is ClearPolicy.COPY and not prog.cntfwd.counts:
                # Software Map.clear for a copy-clearing method.
                values.setdefault(key, state.soft.get(key))
                state.soft.clear(key)
                state.soft.clear_counter(key)

        if replay_pairs:
            self._fold_via_ctrl(state, config, pkt, replay_pairs, values,
                                prog.uses_get or prog.cntfwd.counts)
            return
        if absorbed:
            return  # no ACK: the eventual threshold result resolves it
        if prog.cntfwd.counts and \
                prog.cntfwd.target is ForwardTarget.ALL and values:
            # Software equivalent of the switch's threshold multicast.
            # Without switch support there is no multicast either, so the
            # result goes out as one reliable unicast per client.
            kv_out = _result_block(values)
            if config.has_switch:
                result = Packet(gaid=pkt.gaid, src=self.host.name,
                                dst=config.clients[0], is_sa=True, kv=kv_out,
                                task_id=pkt.task_id, offset=pkt.offset,
                                round=pkt.round, payload=pkt.payload,
                                payload_bytes=pkt.payload_bytes)
                result.select_all_slots()
                state.mcast.send(result)
            else:
                for client in config.clients:
                    self._reply(state, config, client,
                                dict(gaid=pkt.gaid,
                                     kv=kv_out.copy(),
                                     task_id=pkt.task_id, offset=pkt.offset,
                                     round=pkt.round))
            return
        self._send_ack(state, config, pkt)
        if values and (prog.uses_get or prog.cntfwd.counts):
            self._reply(state, config, pkt.src,
                        dict(gaid=pkt.gaid, kv=_result_block(values),
                             task_id=pkt.task_id, offset=pkt.offset,
                             round=pkt.round))

    def _software_count(self, state: _AppServerState, prog: RIPProgram,
                        key: Any) -> bool:
        """Software CntFwd with the same re-arm/test&set semantics."""
        threshold = prog.cntfwd.threshold
        if prog.uses_add_to:
            # The Map.addTo above already incremented the accumulator.
            count = state.soft.get(key)
            if count == threshold:
                if threshold > 1:
                    state.soft.clear(key)
                return True
            return False
        return state.soft.count_forward(key, threshold)

    def _mapping_for(self, state: _AppServerState, config: AppConfig,
                     key: Any, grants: List[Tuple[int, int]]
                     ) -> Optional[int]:
        """Existing or fresh physical mapping for ``key`` (None = software)."""
        if state.mm is None or not config.has_switch:
            return None
        outcome = state.map_outcome.get(key)
        if outcome is None:
            logical = logical_address(key)
            owner = state.key_of_logical.setdefault(logical, key)
            outcome = logical if owner == key else -1
            state.map_outcome[key] = outcome
        if outcome < 0:
            return None  # collision: this key lives in software forever
        logical = outcome
        existing = state.mm.lookup(logical)
        if existing is not None:
            return existing
        phys = state.mm.request(logical, self.sim.now)
        if phys is None:
            return None
        # Seed the register with whatever accumulated in software so the
        # switch becomes the single authority for this key.
        if config.program.agg.is_float:
            state.soft.clear_counter(key)
            seed, _of = config.codec.encode(state.soft.fclear(key))
        else:
            seed = state.soft.clear(key) + state.soft.clear_counter(key)
        if seed:
            self._ctrl(state, lambda sw: sw.ctrl_write(phys, seed))
        for client in config.clients:
            state.pending_grants.setdefault(client, []).append(
                (logical, phys))
        grants.append((logical, phys))
        return phys

    def _owner_switch(self, state: _AppServerState, phys: int):
        for switch in state.switches:
            if switch.owns(phys):
                return switch
        return None

    def _fold_via_ctrl(self, state: _AppServerState, config: AppConfig,
                       origin: Packet, pairs: List[Tuple[int, Any, int]],
                       partial_values: Dict[Any, int],
                       needs_reply: bool) -> None:
        """Fold late cross traffic into granted registers (control plane).

        The update is an atomic driver-side register add, so the register
        stays the single authority for its key even while clients race on
        the data plane.  Completion (ACK/reply/absorb) is deferred by the
        control RTT.
        """
        self.stats["replays"] += 1
        prog = config.program
        # Control-plane *writes* are posted (applied immediately, like
        # fire-and-forget PCIe writes), which preserves read-after-write
        # ordering for any later data-plane query.  Read-backs pay the
        # control-plane RTT before the reply goes out.
        values = dict(partial_values)
        absorbed = False
        for phys, key, value in pairs:
            switch = self._owner_switch(state, phys)
            if switch is None:  # pragma: no cover - defensive
                continue
            if prog.uses_add_to:
                if prog.agg is AggOp.FADD:
                    _new, overflowed = switch.ctrl_fadd(phys, value,
                                                        config.codec)
                elif prog.agg is AggOp.FMAX:
                    _new, overflowed = switch.ctrl_fmax(phys, value)
                else:
                    _new, overflowed = switch.ctrl_add(phys, value)
                if overflowed:
                    # Keep the delta exact in software; the sticky bit
                    # drives the normal overflow recovery downstream.
                    if prog.agg is AggOp.FADD:
                        state.soft.fadd_to(key, value, config.codec)
                    elif prog.agg is AggOp.FMAX:
                        state.soft.fmax_to(key, value, config.codec)
                    else:
                        state.soft.add_to(key, value)
            if prog.uses_get:
                values[key] = switch.ctrl_read([phys])[0][1]
            if prog.cntfwd.counts:
                if not prog.uses_add_to:
                    switch.ctrl_add(phys, 1)
                count = switch.ctrl_read([phys])[0][1]
                if count == prog.cntfwd.threshold:
                    if prog.cntfwd.threshold > 1:
                        switch.ctrl_write(phys, 0)
                    values.setdefault(key, count)
                else:
                    absorbed = True
            if prog.clear is ClearPolicy.COPY and not prog.cntfwd.counts:
                _addr, old, _sticky = switch.ctrl_read_and_clear([phys])[0]
                values.setdefault(key, old)
        if absorbed:
            return  # like a switch drop: the client retries/waits
        if not needs_reply:
            self._send_ack(state, config, origin)
            return

        def finish(_):
            self._send_ack(state, config, origin)
            if not values:
                return
            kv_out = _result_block(values)
            if prog.cntfwd.counts and \
                    prog.cntfwd.target is ForwardTarget.ALL:
                result = Packet(gaid=origin.gaid, src=self.host.name,
                                dst=config.clients[0], is_sa=True,
                                kv=kv_out, task_id=origin.task_id,
                                offset=origin.offset, round=origin.round,
                                payload=origin.payload,
                                payload_bytes=origin.payload_bytes)
                result.select_all_slots()
                state.mcast.send(result)
                return
            self._reply(state, config, origin.src,
                        dict(gaid=origin.gaid, kv=kv_out,
                             task_id=origin.task_id, offset=origin.offset,
                             round=origin.round))

        self.sim.schedule(self.cal.ctrl_rtt_s, finish, None)

    # ------------------------------------------------------------------
    # overflow recovery (§5.2.1)
    # ------------------------------------------------------------------
    def _on_overflow_replay(self, state: _AppServerState, config: AppConfig,
                            pkt: Packet) -> None:
        prog = config.program
        self._send_ack(state, config, pkt)
        if config.linear and prog.cntfwd.counts:
            # SyncAgtr: collect every client's raw chunk, then send the
            # corrected aggregate computed in 64-bit software.
            buf = state.overflow_buf.setdefault((pkt.round, pkt.offset), {})
            buf[pkt.src] = pkt.kv.values_list()
            if len(buf) < prog.cntfwd.threshold:
                return
            contributions = state.overflow_buf.pop((pkt.round, pkt.offset))
            columns = zip(*contributions.values())
            if prog.agg is AggOp.FADD:
                # Exact float64 re-reduction of the raw encodings; the
                # corrected value saturates only if it is genuinely
                # beyond the format (then MAX is the honest answer).
                codec = config.codec
                corrected = [
                    codec.encode(sum(codec.decode(v) for v in col))[0]
                    for col in columns]
            elif prog.agg is AggOp.FMAX:
                # Ordered encodings compare like floats: integer max of
                # the raw replays IS the exact fp max.
                corrected = [max(col) for col in columns]
            else:
                # Integer (incl. qadd codes / topk coordinates): 64-bit
                # software sum.
                corrected = [sum(col) for col in columns]
            self.stats["corrected_chunks"] += 1
            self._finish_corrected_chunk(state, config, pkt, corrected)
            return
        # Map-addressed applications: exact software accumulation; the
        # register keeps its recoverable pre-overflow value until eviction.
        values: Dict[Any, int] = {}
        block = pkt.kv
        keys_col = block.keys
        for index, value in enumerate(block.values):
            key = keys_col[index] if keys_col is not None else None
            if prog.agg.is_float:
                codec = config.codec
                if prog.uses_add_to:
                    if prog.agg is AggOp.FADD:
                        state.soft.fadd_to(key, value, codec)
                    else:
                        state.soft.fmax_to(key, value, codec)
                if prog.uses_get:
                    reg = codec.decode(
                        self._register_part(state, config, key))
                    soft = state.soft.fvalue(key)
                    total = soft + reg if prog.agg is AggOp.FADD \
                        else max(soft, reg)
                    values[key] = codec.encode(total)[0]
                continue
            if prog.uses_add_to:
                state.soft.add_to(key, value)
            if prog.uses_get:
                values[key] = state.soft.get(key) + \
                    self._register_part(state, config, key)
        if values:
            self._reply(state, config, pkt.src,
                        dict(gaid=pkt.gaid, kv=_result_block(values),
                             task_id=pkt.task_id, offset=pkt.offset,
                             round=pkt.round))

    def _register_part(self, state: _AppServerState, config: AppConfig,
                       key: Any) -> int:
        """Exact register contribution of a (possibly sticky) mapped key."""
        if state.mm is None:
            return 0
        phys = state.mm.lookup(logical_address(key))
        if phys is None:
            return 0
        for switch in state.switches:
            if switch.owns(phys):
                return switch.ctrl_read([phys])[0][1]
        return 0

    def _finish_corrected_chunk(self, state: _AppServerState,
                                config: AppConfig, pkt: Packet,
                                corrected: List[int]) -> None:
        prog = config.program
        half = config.active_region_size
        parity = pkt.round % 2 if config.shadow else 0
        base = config.value_region.base + parity * half
        addrs = [base + (pkt.offset + j) % half for j in range(len(corrected))]
        if prog.clear is ClearPolicy.LAZY:
            # Reset the sticky registers so later rounds reuse them.
            self._ctrl(state,
                       lambda sw, a=tuple(addrs): sw.ctrl_read_and_clear(a))
        key_range = range(pkt.offset, pkt.offset + len(corrected))
        kv = KVBlock.from_columns(addrs, corrected, mapped_mask=-1,
                                  keys=list(key_range))
        result = Packet(gaid=pkt.gaid, src=self.host.name,
                        dst=config.clients[0], is_sa=True, kv=kv,
                        task_id=pkt.task_id, offset=pkt.offset,
                        task_total=pkt.task_total, round=pkt.round)
        result.select_all_slots()
        state.mcast.send(result)
        self._store_round_chunk(state, pkt, corrected)

    def _merge_evicted(self, state: _AppServerState, key: Any,
                       value: int) -> None:
        """Fold an evicted register back into the software map, in the
        application's aggregation arithmetic."""
        config = state.any_config()
        agg = config.program.agg
        if agg is AggOp.FADD:
            state.soft.fadd_to(key, value, config.codec)
        elif agg is AggOp.FMAX:
            state.soft.fmax_to(key, value, config.codec)
        else:
            state.soft.merge_register(key, value)

    # ------------------------------------------------------------------
    # cache-update window: periodic LRU eviction (§5.2.2)
    # ------------------------------------------------------------------
    def _window_loop(self, state: _AppServerState):
        while True:
            yield self.sim.timeout(self.cal.cache_update_window_s)
            state.pending_revokes = []
            if state.mm is None:
                continue
            victims = state.mm.end_window(self.sim.now)
            if not victims:
                continue
            yield self.sim.timeout(self.cal.ctrl_rtt_s)
            for logical, phys in victims:
                value = 0
                for switch in state.switches:
                    if switch.owns(phys):
                        value = switch.ctrl_read_and_clear([phys])[0][1]
                        break
                key = state.key_of_logical.get(logical)
                if key is not None and value:
                    self._merge_evicted(state, key, value)
                state.mm.finish_eviction(logical, self.sim.now)
                state.pending_revokes.append(logical)
                self.stats["evictions"] += 1

    # ------------------------------------------------------------------
    # two-level timeout support (§5.2.2, invoked by the controller)
    # ------------------------------------------------------------------
    def retrieve_app(self, app_key: str) -> int:
        """First-level timeout: drain the app's switch state into software.

        Returns the number of registers retrieved.  The mappings are
        revoked so switch memory can be reclaimed quickly while the
        (much larger) server keeps the data available.
        """
        state = self._apps.get(app_key)
        if state is None or state.mm is None:
            return 0
        retrieved = 0
        for logical in list(state.mm.mapped_logicals()):
            phys = state.mm.lookup(logical)
            key = state.key_of_logical.get(logical)
            for switch in state.switches:
                if switch.owns(phys):
                    value = switch.ctrl_read_and_clear([phys])[0][1]
                    if key is not None and value:
                        self._merge_evicted(state, key, value)
                    retrieved += 1
                    break
            state.mm.finish_eviction(logical, self.sim.now)
            state.pending_revokes.append(logical)
        return retrieved

    def expire_app(self, app_key: str) -> Dict[Any, int]:
        """Second-level timeout: hand the saved data back (or drop it)."""
        state = self._apps.get(app_key)
        if state is None:
            return {}
        return state.soft.drain()

    # ------------------------------------------------------------------
    def _ctrl(self, state: _AppServerState, fn: Callable) -> None:
        """Run a control-plane switch operation after the control RTT."""
        def do(_):
            for switch in state.switches:
                try:
                    fn(switch)
                    return
                except IndexError:
                    continue
        self.sim.schedule(self.cal.ctrl_rtt_s, do, None)
