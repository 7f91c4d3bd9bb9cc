"""Aggregation baselines: SwitchML, ATP, and BytePS (paper §6.3, Fig. 6/10).

Each baseline implements the *distinguishing mechanism* that drives its
measured behaviour:

* **SwitchML** — a fixed pool of switch slots reused in order.  A worker
  may send chunk ``i`` only after chunk ``i - pool`` completed, so a
  single lost packet head-of-line-blocks the slot pool (the paper's 43%
  degradation at 1% loss).  Aggregation results multicast from the
  switch after a recirculation pass.
* **ATP** — out-of-order windows with per-packet parameter-server ACKs:
  completed aggregates are forwarded to the PS, which returns the result
  (and thereby the ACK) to the workers.  Loss only costs the lost packet
  (graceful degradation), at the price of PS involvement and switch
  recirculation.
* **BytePS** — no INC: workers shard chunks across software parameter
  servers whose per-packet CPU cost creates the incast/processing
  bottleneck INC removes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.netsim import (
    Calibration,
    DEFAULT_CALIBRATION,
    Host,
    LossModel,
    Simulator,
    star,
)
from repro.switchsim import PlainSwitch

__all__ = ["AggChunkPacket", "BaselineAggSwitch", "AggregationJob",
           "build_aggregation_job"]


_CHUNK_VALUES = 32
_DATA_TEMPLATE = array("q", [1]) * _CHUNK_VALUES
_PKT_BYTES = 192          # linear packets, like NetRPC's SyncAgtr
_RESULT_BYTES = 192
_ACK_BYTES = 64


@dataclass
class AggChunkPacket:
    """A gradient chunk / result / ACK for the baseline protocols.

    ``values`` is a columnar ``array('q')`` (same layout as the NetRPC
    ``KVBlock`` value column) so chunk payloads copy and accumulate as
    buffers rather than per-element object lists.
    """

    kind: str                  # data | result | ack
    src: str
    dst: str
    worker: str = ""
    chunk: int = -1
    values: array = field(default_factory=lambda: array("q"))
    size_bytes: int = _PKT_BYTES
    ecn: bool = False


class BaselineAggSwitch(PlainSwitch):
    """Slot-pool aggregation switch shared by SwitchML and ATP modes."""

    def __init__(self, sim: Simulator, name: str, n_workers: int,
                 mode: str, ps: str, n_slots: int = 128,
                 cal: Calibration = DEFAULT_CALIBRATION):
        super().__init__(sim, name, cal)
        if mode not in ("switchml", "atp"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        self.mode = mode
        self.n_workers = n_workers
        self.n_slots = n_slots
        self.ps = ps
        self.workers: Tuple[str, ...] = ()
        # slot -> (chunk, accumulated value column, contributed workers)
        self._slots: Dict[int, Tuple[int, array, Set[str]]] = {}
        # slot -> chunk whose aggregation completed (kept until the slot
        # is claimed by a newer chunk) so a worker that lost the result
        # can be answered from the cache instead of deadlocking the pool.
        self._completed: Dict[int, int] = {}
        self._recirc_free_at = 0.0

    def receive(self, packet) -> None:
        self.stats.add("rx_pkts")
        if isinstance(packet, AggChunkPacket) and packet.kind == "result" \
                and packet.dst == "*workers*":
            # ATP: the PS sends one result; the switch replicates it.
            self.sim.schedule(self.cal.switch_pipeline_delay_s,
                              self._multicast_result, packet.chunk)
            return
        if not isinstance(packet, AggChunkPacket) or packet.kind != "data":
            self.sim.schedule(self.cal.switch_pipeline_delay_s,
                              self._forward, packet)
            return
        self.sim.schedule(self.cal.switch_pipeline_delay_s,
                          self._aggregate, packet)

    def _multicast_result(self, chunk: int) -> None:
        for worker in self.workers:
            out = AggChunkPacket(kind="result", src=self.name, dst=worker,
                                 chunk=chunk, size_bytes=_RESULT_BYTES)
            self.send(out, self.next_hop_for(worker))

    def _aggregate(self, packet: AggChunkPacket) -> None:
        slot_index = packet.chunk % self.n_slots
        if self._completed.get(slot_index) == packet.chunk:
            # Retransmission for an already-completed chunk: the worker
            # lost the result; answer from the slot's cached aggregate.
            self.stats.add("result_replays")
            if self.mode == "atp":
                out = AggChunkPacket(kind="result", src=self.name,
                                     dst=self.ps, chunk=packet.chunk,
                                     size_bytes=_RESULT_BYTES)
                self.send(out, self.next_hop_for(self.ps))
            else:
                out = AggChunkPacket(kind="result", src=self.name,
                                     dst=packet.src, chunk=packet.chunk,
                                     size_bytes=_RESULT_BYTES)
                self.send(out, self.next_hop_for(packet.src))
            return
        slot = self._slots.get(slot_index)
        stale = (slot is not None and packet.chunk < slot[0]) or \
            self._completed.get(slot_index, -1) > packet.chunk
        if stale:
            # A retransmission from an older slot generation.  The pool
            # discipline guarantees that generation completed (someone
            # advanced past it), so answer with a replayed result rather
            # than corrupting the current occupant.
            self.stats.add("stale_replays")
            out = AggChunkPacket(kind="result", src=self.name,
                                 dst=packet.src, chunk=packet.chunk,
                                 size_bytes=_RESULT_BYTES)
            self.send(out, self.next_hop_for(packet.src))
            return
        if slot is None or slot[0] != packet.chunk:
            slot = (packet.chunk, array("q", bytes(8 * len(packet.values))),
                    set())
            self._slots[slot_index] = slot
            self._completed.pop(slot_index, None)
        chunk, values, contributed = slot
        if packet.worker in contributed:
            self.stats.add("duplicate_contributions")
            return
        contributed.add(packet.worker)
        for index, value in enumerate(packet.values):
            values[index] += value
        if len(contributed) < self.n_workers:
            self.stats.add("absorbed")
            return
        # Complete: a recirculation pass produces the result packet(s).
        del self._slots[slot_index]
        self._completed[slot_index] = chunk
        self.stats.add("completions")
        tx = _RESULT_BYTES * 8.0 / self.cal.link_bandwidth_bps
        start = max(self.sim.now, self._recirc_free_at)
        self._recirc_free_at = start + tx
        delay = (start + tx + self.cal.switch_recirculation_delay_s
                 - self.sim.now)
        self.sim.schedule(delay, self._emit_result, packet.chunk)

    def _emit_result(self, chunk: int) -> None:
        result_values: List[int] = []
        if self.mode == "atp":
            # Forward the aggregate to the PS; the PS responds to workers.
            out = AggChunkPacket(kind="result", src=self.name, dst=self.ps,
                                 chunk=chunk, size_bytes=_RESULT_BYTES)
            self.send(out, self.next_hop_for(self.ps))
            return
        # switchml: multicast straight back to the workers.
        for worker in self.workers:
            out = AggChunkPacket(kind="result", src=self.name, dst=worker,
                                 chunk=chunk, size_bytes=_RESULT_BYTES)
            self.send(out, self.next_hop_for(worker))


class _WorkerBase:
    """Shared sender machinery: outstanding chunks plus retransmission."""

    RTO = 50e-6               # ~10x the rack RTT, like the real systems
    MAX_ATTEMPTS = 60

    def __init__(self, sim: Simulator, host: Host, tor: str, name: str,
                 total_chunks: int, window: int):
        self.sim = sim
        self.host = host
        self.tor = tor
        self.name = name
        self.total_chunks = total_chunks
        self.window = window
        self.next_chunk = 0
        self.completed: Set[int] = set()
        self.outstanding: Dict[int, int] = {}   # chunk -> attempts
        self.done = sim.event()
        self.stats = {"sent": 0, "retransmits": 0}
        host.set_handler(self._on_packet)

    # -- override points -------------------------------------------------
    def _dst_for(self, chunk: int) -> str:
        raise NotImplementedError

    def _may_send(self, chunk: int) -> bool:
        return len(self.outstanding) < self.window

    # ---------------------------------------------------------------
    def start(self) -> None:
        self._pump()

    def _pump(self) -> None:
        while self.next_chunk < self.total_chunks and \
                self._may_send(self.next_chunk):
            self._transmit(self.next_chunk)
            self.next_chunk += 1
        if not self.outstanding and self.next_chunk >= self.total_chunks \
                and not self.done.triggered:
            self.done.succeed()

    def _transmit(self, chunk: int) -> None:
        attempts = self.outstanding.get(chunk, 0) + 1
        self.outstanding[chunk] = attempts
        packet = AggChunkPacket(kind="data", src=self.host.name,
                                dst=self._dst_for(chunk), worker=self.name,
                                chunk=chunk, values=_DATA_TEMPLATE[:])
        self.host.send(packet, self.tor)
        self.stats["sent" if attempts == 1 else "retransmits"] += 1
        self.sim.schedule(self.RTO * min(4, attempts), self._timeout,
                          (chunk, attempts))

    def _timeout(self, pair) -> None:
        chunk, attempts = pair
        if chunk in self.completed or \
                self.outstanding.get(chunk) != attempts:
            return
        if attempts >= self.MAX_ATTEMPTS:  # pragma: no cover - give up
            self.outstanding.pop(chunk, None)
            self._pump()
            return
        self._transmit(chunk)

    def _on_packet(self, packet) -> None:
        if not isinstance(packet, AggChunkPacket) or \
                packet.kind != "result":
            return
        if packet.chunk in self.completed:
            return
        self.completed.add(packet.chunk)
        self.outstanding.pop(packet.chunk, None)
        self._pump()


class SwitchMLWorker(_WorkerBase):
    """In-order slot pool: chunk i waits for chunk i - window."""

    def _dst_for(self, chunk: int) -> str:
        return "ps"  # routed via the switch, absorbed there

    def _may_send(self, chunk: int) -> bool:
        # The slot for this chunk must be free: the previous occupant
        # (chunk - window) must have completed.  This is the head-of-line
        # blocking that makes SwitchML fragile under loss.
        previous = chunk - self.window
        if previous >= 0 and previous not in self.completed:
            return False
        return len(self.outstanding) < self.window


class ATPWorker(_WorkerBase):
    """Out-of-order window with PS-returned results as ACKs.

    ATP's AIMD treats retransmission timeouts as congestion (unlike
    NetRPC's ECN-only design), so its window halves on loss — the
    behaviour behind its Figure 10 curve.
    """

    MIN_WINDOW = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._max_window = self.window

    def _dst_for(self, chunk: int) -> str:
        return "ps"

    def _timeout(self, pair) -> None:
        chunk, attempts = pair
        if chunk not in self.completed and \
                self.outstanding.get(chunk) == attempts:
            self.window = max(self.MIN_WINDOW, self.window // 2)
        super()._timeout(pair)

    def _on_packet(self, packet) -> None:
        if isinstance(packet, AggChunkPacket) and packet.kind == "result" \
                and self.window < self._max_window:
            self.window += 1  # additive recovery per completion
        super()._on_packet(packet)


class BytePSWorker(_WorkerBase):
    """Software parameter servers, sharded by chunk."""

    def __init__(self, *args, ps_hosts: List[str], **kwargs):
        self.ps_hosts = ps_hosts
        super().__init__(*args, **kwargs)

    def _dst_for(self, chunk: int) -> str:
        return self.ps_hosts[chunk % len(self.ps_hosts)]


class _ParameterServer:
    """Software aggregation endpoint (BytePS; also ATP's result turn)."""

    def __init__(self, sim: Simulator, host: Host, tor: str,
                 n_workers: int, workers: List[str], software: bool,
                 cal: Calibration):
        self.sim = sim
        self.host = host
        self.tor = tor
        self.n_workers = n_workers
        self.workers = workers
        self.software = software
        self.cal = cal
        self._contrib: Dict[int, Set[str]] = {}
        self._completed: Set[int] = set()
        host.set_handler(self._on_packet)

    def _on_packet(self, packet) -> None:
        if not isinstance(packet, AggChunkPacket):
            return
        if packet.kind == "result":
            # ATP: the switch aggregated and forwarded here for the PS
            # ACK; answer with one result the switch will replicate.
            out = AggChunkPacket(kind="result", src=self.host.name,
                                 dst="*workers*", chunk=packet.chunk,
                                 size_bytes=_RESULT_BYTES)
            self.host.send(out, self.tor)
            return
        if packet.kind != "data":
            return
        if self.software:
            self.host.run_on_core(self.cal.server_sw_inc_pkt_cpu_s,
                                  self._software_aggregate, packet)

    def _software_aggregate(self, packet: AggChunkPacket) -> None:
        if packet.chunk in self._completed:
            # A worker that lost its result retransmitted the chunk.
            self._respond_to(packet.chunk, packet.worker)
            return
        contributed = self._contrib.setdefault(packet.chunk, set())
        if packet.worker in contributed:
            return
        contributed.add(packet.worker)
        if len(contributed) >= self.n_workers:
            del self._contrib[packet.chunk]
            self._completed.add(packet.chunk)
            self._respond(packet.chunk)

    def _respond(self, chunk: int) -> None:
        for worker in self.workers:
            self._respond_to(chunk, worker)

    def _respond_to(self, chunk: int, worker: str) -> None:
        out = AggChunkPacket(kind="result", src=self.host.name,
                             dst=worker, chunk=chunk,
                             size_bytes=_RESULT_BYTES)
        self.host.send(out, self.tor)


@dataclass
class AggregationJob:
    """A wired-up baseline run; ``run()`` reports per-sender goodput."""

    sim: Simulator
    workers: List[_WorkerBase]
    total_chunks: int
    kind: str

    def run(self, limit: float = 60.0) -> float:
        """Run to completion; returns per-sender goodput in Gbps."""
        start = self.sim.now
        for worker in self.workers:
            worker.start()
        done = self.sim.all_of([w.done for w in self.workers])
        self.sim.run_until(done, limit=start + limit)
        elapsed = self.sim.now - start
        payload_bits = self.total_chunks * _CHUNK_VALUES * 4 * 8
        return payload_bits / elapsed / 1e9 if elapsed > 0 else 0.0


def build_aggregation_job(kind: str, n_workers: int, total_chunks: int,
                          cal: Calibration = DEFAULT_CALIBRATION,
                          seed: int = 0, n_ps: int = 0,
                          window: int = 0,
                          loss_factory=None) -> AggregationJob:
    """Assemble a SwitchML / ATP / BytePS run on a one-switch rack.

    Default windows reflect each design: SwitchML's modest in-order slot
    pool, ATP's 256-deep out-of-order window, BytePS with 8 sharded
    parameter servers (the paper's software configuration).
    """
    if kind not in ("switchml", "atp", "byteps"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    if window <= 0:
        window = {"switchml": 128, "atp": 320, "byteps": 256}[kind]
    if n_ps <= 0:
        n_ps = 8 if kind == "byteps" else 1
    sim = Simulator(seed=seed)
    worker_names = [f"w{i}" for i in range(n_workers)]
    if kind in ("switchml", "atp"):
        switch = BaselineAggSwitch(sim, "sw0", n_workers, kind, ps="ps",
                                   n_slots=window, cal=cal)
        ps_hosts = [Host(sim, "ps", cores=cal.host_agent_cores,
                         rx_cpu_cost_s=cal.host_pkt_cpu_s)]
    elif kind == "byteps":
        switch = PlainSwitch(sim, "sw0", cal=cal)
        ps_hosts = [Host(sim, f"ps{i}" if n_ps > 1 else "ps",
                         cores=cal.host_agent_cores,
                         rx_cpu_cost_s=cal.host_pkt_cpu_s)
                    for i in range(n_ps)]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    hosts = [Host(sim, name, cores=cal.host_agent_cores,
                  rx_cpu_cost_s=cal.host_pkt_cpu_s)
             for name in worker_names]
    topo = star(sim, switch, hosts + ps_hosts, cal=cal)
    if loss_factory is not None:
        for link in topo.links.values():
            link.loss = loss_factory()
    if isinstance(switch, BaselineAggSwitch):
        switch.workers = tuple(worker_names)

    workers: List[_WorkerBase] = []
    ps_names = [h.name for h in ps_hosts]
    for name, host in zip(worker_names, hosts):
        if kind == "switchml":
            worker = SwitchMLWorker(sim, host, "sw0", name, total_chunks,
                                    window)
        elif kind == "atp":
            worker = ATPWorker(sim, host, "sw0", name, total_chunks,
                               window)
        else:
            worker = BytePSWorker(sim, host, "sw0", name, total_chunks,
                                  window, ps_hosts=ps_names)
        workers.append(worker)
    for ps_host in ps_hosts:
        _ParameterServer(sim, ps_host, "sw0", n_workers, worker_names,
                         software=(kind == "byteps"), cal=cal)
    return AggregationJob(sim=sim, workers=workers,
                          total_chunks=total_chunks, kind=kind)
