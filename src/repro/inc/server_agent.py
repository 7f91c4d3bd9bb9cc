"""The per-host server agent (paper §5).

The server agent is the authority for one or more applications:

* it owns the logical -> physical mapping and hands out grants
  piggybacked on ACKs (§5.2.2, "multiple clients of a single
  application");
* it executes every RIP in software for unmapped/collided keys and for
  deployments without a programmable switch (the fallback guarantee of
  §3.2): the switch's own ``protocol.apply``, answered as the switch would;
* it backs up and returns synchronous-aggregation rounds under the
  ``copy`` clear policy, clearing switch registers on the return path;
* it reconstructs exact results for overflowed chunks from the clients'
  raw replays (§5.2.1);
* it runs the periodic cache-update window: evictions, register
  drain-back, and grant revocations.

Late cross-path traffic for keys that already hold a mapping runs on
the owning register through the control plane
(:meth:`~repro.switchsim.switch.NetRPCSwitch.ctrl_apply`), so each key
has exactly one authoritative counter/accumulator at any time.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Host, Simulator
from repro.obs.tracer import TRACE
from repro.protocol import (
    ClearPolicy,
    ForwardTarget,
    KVBlock,
    Packet,
    apply,
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


def _framing(pkt: Packet, **fields) -> Dict[str, Any]:
    """A result's packet fields: ``fields`` and ``pkt``'s call, chunk
    and round."""
    return dict(gaid=pkt.gaid, task_id=pkt.task_id, offset=pkt.offset,
                round=pkt.round, **fields)


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
    def __init__(self, codec):
        self.configs: Dict[int, AppConfig] = {}
        # One arithmetic per app: controller.register rejects programs
        # that mix aggregation ops.
        self.soft = SoftwareINCMap(codec)
        self.mm: Optional[MemoryManager] = None
        self.switches: List[Any] = []
        self.mcast: Optional[_McastFlow] = None
        self.unicast: Dict[str, ReliableFlow] = {}
        self.flow_by_id: Dict[int, ReliableFlow] = {}
        self.n_mcast_flows = 0
        self.seen: Dict[Tuple[str, int], Set[int]] = {}
        self.acked: Dict[Tuple[str, int], Set[int]] = {}
        # Software-path packets left without an ACK (absorbed, or answered
        # by a multicast), whose retransmissions read again.
        self.unanswered: Set[Tuple[Tuple[str, int], int]] = set()
        self.pending_grants: Dict[str, List[Tuple[int, int]]] = {}
        self.pending_revokes: List[int] = []
        self.rounds: Dict[int, Dict[str, Any]] = {}
        # Chunks whose return stream already went out, so a re-triggered
        # retransmission (lost-trigger recovery) is not emitted twice.
        self.sync_emitted: Set[Tuple[int, int]] = set()
        self.overflow_buf: Dict[Tuple[int, int], SoftwareINCMap] = {}
        self.key_of_logical: Dict[int, Any] = {}
        # Memoized per-key mapping outcome: the key's logical address when
        # it owns it, -1 when it hash-collided (software path forever).
        self.map_outcome: Dict[Any, int] = {}
        self.on_round: Optional[Callable[[int, Dict[Any, int]], None]] = None
        self.on_data: Optional[Callable[[str, Packet], None]] = None
        self.on_call: Optional[Callable[[str, int, Any], Any]] = None


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
        # Header prototypes, one per (gaid, destination): the hot send
        # paths (ACKs, SyncAgtr returns) copy one and store the fields
        # that differ.
        self._protos: Dict[Tuple[int, str], Packet] = {}

    # ------------------------------------------------------------------
    # registration (driven by the controller)
    # ------------------------------------------------------------------
    def register_app(self, config: AppConfig, switches: List[Any],
                     mcast_srrts: List[int],
                     unicast_srrts: Dict[str, int]) -> None:
        key = config.program.app_name
        state = self._apps.get(key)
        if state is None:
            state = _AppServerState(config.program.codec)
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
                policy=make_policy(config.cache_policy))
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
    def _on_packet(self, pkt: Packet) -> None:
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
        cost = self.cal.server_sw_inc_pkt_cpu_s
        if pkt.seq in seen:
            if pkt.seq in state.acked.get(flow_key, set()):
                self._send_ack(state, pkt)
            elif (flow_key, pkt.seq) in state.unanswered:
                self.host.run_on_core(cost, self._invoke,
                                      (self._on_cross, state, config, pkt,
                                       True))
            return
        seen.add(pkt.seq)

        if not pkt.is_cross:
            # Switch-processed, overflow-marked or not (e.g. a
            # sentinel-carrying round trigger).
            self._forwarded(state, config, pkt)
        else:       # a client's raw overflow replay, or the software path
            self.host.run_on_core(cost, self._invoke, (
                self._on_overflow_replay if pkt.is_of else self._on_cross,
                state, config, pkt))

    @staticmethod
    def _invoke(call) -> None:
        """Run ``(method, *args)``: a one-argument event callback."""
        call[0](*call[1:])

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
    def _send_ack(self, state: _AppServerState, pkt: Packet) -> None:
        proto = self._protos.get((pkt.gaid, pkt.src))
        if proto is None:
            proto = self._prototype(pkt.gaid, pkt.src)
        ack = proto.copy()
        ack.is_ack = True
        ack.acks = (pkt.seq,)
        ack.ack_flow = pkt.flow_id
        ack.grants = tuple(state.pending_grants.pop(pkt.src, ()))
        ack.revokes = tuple(state.pending_revokes)
        state.acked.setdefault((pkt.src, pkt.flow_id), set()).add(pkt.seq)
        self.host.send(ack, self.tor)

    def _prototype(self, gaid: int, dst: str) -> Packet:
        """Build (through the validating constructor, once) and keep the
        header every hot-path packet from this host to ``dst`` copies."""
        proto = self._protos[(gaid, dst)] = Packet(
            gaid=gaid, src=self.host.name, dst=dst)
        return proto

    def _reply(self, state: _AppServerState, client: str,
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

    def _multicast(self, state: _AppServerState, config: AppConfig,
                   packet: Packet) -> None:
        """Send a result to every client: on the multicast flows, which
        the switch replicates, or with no switch one unicast each."""
        if config.has_switch:
            state.mcast.send(packet)
            return
        for client in config.clients:
            copy = packet.copy()
            copy.dst = client
            copy.is_mcast = True
            state.unicast[client].enqueue(copy)

    # ------------------------------------------------------------------
    # packets the INC program forwards to the server
    # ------------------------------------------------------------------
    def _forwarded(self, state: _AppServerState, config: AppConfig,
                   pkt: Packet, software: bool = False) -> bool:
        """A packet its program sends on to the server, from the switch
        or this agent's own ``software`` run.  Returns whether a clearing
        return went out (which a software run then does itself)."""
        prog = config.program
        if not software and state.on_data is not None and \
                pkt.payload is not None:
            state.on_data(pkt.src, pkt)
        if config.linear and (prog.cntfwd.counts if software
                              else pkt.is_cnf):
            # A SyncAgtr round chunk: back it up and immediately send the
            # clearing return stream (Figure 5).
            return self._on_sync_trigger(state, config, pkt)
        if prog.clear is ClearPolicy.COPY and (software or pkt.kv.any_mapped):
            # A copy-clearing method (e.g. lock Release) detoured here for
            # backup: the return stream clears the registers on its way
            # back to the caller.
            state.acked.setdefault((pkt.src, pkt.flow_id), set()).add(
                pkt.seq)
            if pkt.kv.keys is not None:
                state.soft.clear_block(pkt.kv.keys, -1)
            self._reply(state, pkt.src, _framing(
                pkt, kv=pkt.kv.copy(), is_clr=True, acks=(pkt.seq,),
                ack_flow=pkt.flow_id))
            return True
        if not pkt.is_of:
            self._send_ack(state, pkt)
        # An overflowed packet is answered like a bounce (no ACK), so its
        # sender replays the slots not applied; a read, with what it read.
        if pkt.is_of or prog.replies:
            self._reply(state, pkt.src, _framing(
                pkt, kv=pkt.kv.copy(), is_of=pkt.is_of, of_mask=pkt.of_mask))
        return False

    def _on_sync_trigger(self, state: _AppServerState, config: AppConfig,
                         pkt: Packet) -> bool:
        if (pkt.round, pkt.offset) in state.sync_emitted:
            # The return for this chunk is already (re)transmitting on the
            # reliable multicast flow; ignore the duplicate trigger.
            return False
        state.sync_emitted.add((pkt.round, pkt.offset))
        if len(state.sync_emitted) > 1 << 17:
            state.sync_emitted.clear()  # bounded memory; ancient entries
        dst = config.clients[0]
        proto = self._protos.get((pkt.gaid, dst))
        if proto is None:
            proto = self._prototype(pkt.gaid, dst)
        kv = pkt.kv.copy()
        ret = proto.copy(kv)
        ret.is_sa = ret.is_clr = ret.is_cnf = True
        ret.cnt_index = pkt.cnt_index
        ret.is_of = pkt.is_of
        ret.linear_base = pkt.linear_base
        ret.task_id = pkt.task_id
        ret.offset = pkt.offset
        ret.task_total = pkt.task_total
        ret.round = pkt.round
        ret.bitmap = (1 << len(kv.addrs)) - 1     # every slot selected
        if config.has_switch:
            state.mcast.send(ret)
        else:
            self._multicast(state, config, ret)
        if not pkt.is_of:   # else the corrected result follows the replays
            self._store_round_chunk(state, pkt, pkt.kv.values)
        return True

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
                  pkt: Packet, retrans: bool = False) -> None:
        """Run a packet's program as the switch would: on the software
        map, and for keys that hold a register there, through the control
        plane.  A retransmission (``retrans``) changes no state."""
        prog = config.program
        if isinstance(pkt.payload, tuple) and pkt.payload and \
                pkt.payload[0] == "rpc-call" and not pkt.kv:
            # A plain (non-INC) call: hand it to the server stub and
            # carry its reply back on the unicast return flow.
            self._send_ack(state, pkt)
            reply_payload: Any = ("rpc-reply", b"")
            if state.on_call is not None:
                reply_payload = ("rpc-reply",
                                 state.on_call(pkt.src, pkt.gaid,
                                               pkt.payload[1]))
            self._reply(state, pkt.src, _framing(
                pkt, payload=reply_payload,
                payload_bytes=_payload_size(reply_payload)))
            return
        block = pkt.kv
        keys = block.keys
        n_pairs = len(block.values)
        if not retrans:
            if state.on_data is not None and pkt.payload is not None:
                state.on_data(pkt.src, pkt)
            self.stats["software_pairs"] += n_pairs
        # A chain's edge switch deselects what its upstream switch applied
        # (and read) before diverting a stale packet here.
        select = pkt.bitmap & ((1 << n_pairs) - 1)
        # Keys holding a register; misses, evicted mappings and fresh
        # grants take the full _mapping_for path.
        registers = 0
        words: List[int] = []
        if select and state.mm is not None and config.has_switch:
            mapping_for = self._mapping_for
            outcome_get = state.map_outcome.get
            mm_lookup = state.mm.lookup
            words = [0] * n_pairs
            for index in range(n_pairs):
                if select >> index & 1:
                    key = keys[index]
                    outcome = outcome_get(key)
                    if outcome is None:
                        phys = mapping_for(state, config, key)
                    elif outcome >= 0:
                        phys = mm_lookup(outcome)
                        if phys is None:
                            phys = mapping_for(state, config, key)
                    else:
                        continue
                    if phys is not None:
                        words[index] = phys
                        registers |= 1 << index
        soft = state.soft
        soft_select = select & ~registers
        soft_block = block
        if prog.clear is ClearPolicy.SHADOW and pkt.shadow_offset:
            # The double buffer in software: a round's entries are its
            # parity's, and its first transmissions clear the other's.
            parity = pkt.shadow_offset < 0
            soft_block = KVBlock(block.addrs, block.values, 0,
                                 [(parity, key) for key in keys])
            if not retrans:
                soft.clear_block([(not parity, key) for key in keys],
                                 soft_select)
        counter = None
        if prog.cntfwd.counts:     # keyed: the one key's own entry
            counter = ("CntFwd", pkt.cnt_index) if config.linear else keys[0]
        outcome = apply(prog, soft, soft_block, soft_select, 0,
                        None if registers else counter, retrans)
        owned = self._owned(state, words, registers)
        if owned:   # posted writes: later data-plane accesses see them
            self.stats["replays"] += 1
            phys_block = KVBlock(words, block.values, registers, keys)
            target, mask, overflow, count = outcome
            for switch, owned_select in owned:
                target, owed, over, counted = switch.ctrl_apply(
                    prog, phys_block, owned_select,
                    None if counter is None else words[0], retrans)
                mask |= owed
                overflow = overflow or over
                count = count if counted is None else counted
            outcome = target, mask, overflow, count
        target, mask, overflow, _count = outcome
        if overflow:
            pkt.is_of = True
            pkt.of_mask |= mask
        if target is None or target is ForwardTarget.ALL:
            # Absorbed (the client retries or waits), or answered by a
            # multicast: either way no ACK.
            if len(state.unanswered) > 1 << 17:
                state.unanswered.clear()
            state.unanswered.add(((pkt.src, pkt.flow_id), pkt.seq))
            if target is None:
                return
        if target is ForwardTarget.SERVER:
            if not retrans and self._forwarded(state, config, pkt, True):
                # What the clearing return stream clears on a switch.
                soft.clear_block(soft_block.keys, soft_select)
                if counter is not None and not registers:
                    soft.write(counter, 0)
                for switch, owned_select in owned:
                    switch.ctrl_read_and_clear(
                        [word for index, word in enumerate(words)
                         if owned_select >> index & 1])
            return      # a retransmission is a duplicate there
        # What the run read, copied now: a retransmission restores the
        # sender's packet.
        call = (self._answer, state, config, pkt, block.copy(), outcome)
        if owned and prog.replies:
            # Reading back a register costs a control-plane round trip.
            self.sim.schedule(self.cal.ctrl_rtt_s, self._invoke, call)
        else:
            self._invoke(call)

    def _answer(self, state: _AppServerState, config: AppConfig,
                pkt: Packet, kv: KVBlock, outcome) -> None:
        """Send a software run's result ``kv`` where the switch would: to
        every client, as a bounce when it overflowed (no ACK: the sender
        replays what was refused), or as an ACK and maybe a reply."""
        prog = config.program
        target, mask, overflow, _count = outcome
        result = _framing(pkt, kv=kv, is_of=overflow, of_mask=mask)
        if target is ForwardTarget.ALL and config.has_switch:
            packet = Packet(src=self.host.name, dst=config.clients[0],
                            is_sa=True, payload=pkt.payload,
                            payload_bytes=pkt.payload_bytes, **result)
            packet.select_all_slots()
            state.mcast.send(packet)
        elif target is ForwardTarget.ALL:
            for client in config.clients:
                self._reply(state, client, dict(result, kv=kv.copy()))
        elif overflow:
            self._reply(state, pkt.src, result)
        else:
            self._send_ack(state, pkt)
            if kv and prog.replies:
                self._reply(state, pkt.src, result)

    def _owned(self, state: _AppServerState, words: List[int],
               registers: int):
        """``(switch, select)`` per switch holding ``registers`` slots."""
        owned: Dict[Any, int] = {}
        for index, word in enumerate(words):
            if registers >> index & 1:
                switch = self._owner_switch(state, word)
                owned[switch] = owned.get(switch, 0) | 1 << index
        return list(owned.items())

    def _mapping_for(self, state: _AppServerState, config: AppConfig,
                     key: Any) -> Optional[int]:
        """Existing or fresh physical mapping for ``key`` (None = software)."""
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
        phys = state.mm.request(logical)
        if phys is None:
            return None
        # Seed the register with whatever accumulated in software so the
        # switch becomes the single authority for this key.  The write is
        # posted: it lands before the grant can reach any client.  (A
        # keyed counter is the key's own entry, so it moves with it.)
        seed = state.soft.clear(key)
        if seed:
            self._owner_switch(state, phys).ctrl_write(phys, seed)
        grant = (logical, state.mm.address_word(phys))
        for client in config.clients:
            state.pending_grants.setdefault(client, []).append(grant)
        return phys

    def _owner_switch(self, state: _AppServerState, phys: int):
        """The switch whose register file holds global address ``phys``."""
        for switch in state.switches:
            if switch.owns(phys):
                return switch
        raise LookupError(f"no switch holds physical register {phys}")

    def register_value(self, state: _AppServerState,
                       key: Any) -> Optional[int]:
        """Exact value of ``key``'s switch register (a control-plane
        read), or None while ``key`` holds no mapping."""
        phys = None if state.mm is None else \
            state.mm.lookup(logical_address(key))
        if phys is None:
            return None
        return self._owner_switch(state, phys).ctrl_read([phys])[0][1]

    # ------------------------------------------------------------------
    # overflow recovery (§5.2.1)
    # ------------------------------------------------------------------
    def _on_overflow_replay(self, state: _AppServerState, config: AppConfig,
                            pkt: Packet) -> None:
        prog = config.program
        self._send_ack(state, pkt)
        block = pkt.kv
        if config.linear and prog.cntfwd.counts:
            # SyncAgtr: each client's raw chunk runs the program on the
            # chunk's own exact store, whose totals, once the count fires,
            # are the corrected aggregate (an fp one saturates only if it
            # is genuinely beyond the format).
            chunk = (pkt.round, pkt.offset)
            store = state.overflow_buf.get(chunk)
            if store is None:
                store = state.overflow_buf[chunk] = \
                    SoftwareINCMap(prog.codec)
            every = (1 << len(block.values)) - 1
            if apply(prog, store, block, every, 0, "CntFwd")[0] is None:
                return
            del state.overflow_buf[chunk]
            store.get_block(block, every)
            self.stats["corrected_chunks"] += 1
            self._finish_corrected_chunk(state, config, pkt,
                                         block.values_list())
            return
        # Map-addressed: the program runs in software on the slots the
        # switch did not apply (the replay's bitmap), whose registers keep
        # their pre-overflow value; a reply reads every slot with both.
        apply(prog, state.soft, block, pkt.bitmap)
        if prog.replies:
            values = block.values
            for index, key in enumerate(block.keys):
                values[index] = state.soft.get_with(
                    key, self.register_value(state, key) or 0)
            self._reply(state, pkt.src, _framing(pkt, kv=block.copy()))

    def _finish_corrected_chunk(self, state: _AppServerState,
                                config: AppConfig, pkt: Packet,
                                corrected: List[int]) -> None:
        prog = config.program
        half = config.active_region_size or 1     # 0: no switch region
        parity = pkt.round % 2 if config.shadow else 0
        base = config.value_region.base + parity * half
        addrs = [base + (pkt.offset + j) % half for j in range(len(corrected))]
        if prog.clear is ClearPolicy.LAZY and config.has_switch:
            # Reset the sticky registers so later rounds reuse them: a
            # posted read-and-clear per run of addresses on one switch.
            for switch, owned in groupby(
                    addrs, lambda addr: self._owner_switch(state, addr)):
                switch.ctrl_read_and_clear(list(owned))
        key_range = range(pkt.offset, pkt.offset + len(corrected))
        kv = KVBlock.from_columns(addrs, corrected, mapped_mask=-1,
                                  keys=list(key_range))
        result = Packet(src=self.host.name, dst=config.clients[0],
                        is_sa=True, task_total=pkt.task_total,
                        **_framing(pkt, kv=kv))
        result.select_all_slots()
        self._multicast(state, config, result)
        self._store_round_chunk(state, pkt, corrected)

    # ------------------------------------------------------------------
    # cache-update window: periodic LRU eviction (§5.2.2)
    # ------------------------------------------------------------------
    def _window_loop(self, state: _AppServerState):
        while True:
            yield self.sim.timeout(self.cal.cache_update_window_s)
            state.pending_revokes = []
            victims = state.mm.end_window()
            if not victims:
                continue
            yield self.sim.timeout(self.cal.ctrl_rtt_s)
            self._drain(state, victims)
            self.stats["evictions"] += len(victims)

    def _drain(self, state: _AppServerState,
               victims: Sequence[Tuple[int, int]]) -> None:
        """Evict ``(logical, physical)`` mappings: read and clear each
        register and bump its generation, fold the value into the
        software map (software holds what overflowed a sticky one), free
        the address, and queue the revocation."""
        for logical, phys in victims:
            value, generation = self._owner_switch(state, phys).ctrl_evict(
                phys)
            if value:
                state.soft.add_to(state.key_of_logical[logical], value)
            state.mm.finish_eviction(logical, generation)
            state.pending_revokes.append(logical)

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
        victims = [(logical, state.mm.lookup(logical))
                   for logical in state.mm.mapped_logicals()]
        self._drain(state, victims)
        return len(victims)

    def expire_app(self, app_key: str) -> Dict[Any, int]:
        """Second-level timeout: hand the saved data back (or drop it)."""
        state = self._apps.get(app_key)
        if state is None:
            return {}
        return state.soft.drain()
