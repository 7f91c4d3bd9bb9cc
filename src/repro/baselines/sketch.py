"""ElasticSketch: the monitoring baseline (paper Table 5).

A faithful implementation of the two-part ElasticSketch data structure
(SIGCOMM'18): a *heavy part* of hash buckets with the vote-based
eviction that keeps elephant flows exact(ish), backed by a *light part*
count-min sketch absorbing evicted and mouse traffic.  The
:class:`SketchSwitch` runs it at line rate and answers queries with a
switch bounce, like a hand-optimised INC monitoring deployment.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Simulator
from repro.switchsim import PlainSwitch

__all__ = ["ElasticSketch", "SketchSwitch", "SketchPacket"]


def _hash(key: str, salt: int) -> int:
    return zlib.crc32(f"{salt}:{key}".encode("utf-8")) & 0xFFFFFFFF


class ElasticSketch:
    """Heavy part + light part flow counter (Yang et al., SIGCOMM'18)."""

    def __init__(self, heavy_buckets: int = 4096, light_counters: int = 65536,
                 light_rows: int = 3, eviction_lambda: int = 8):
        if heavy_buckets < 1 or light_counters < 1 or light_rows < 1:
            raise ValueError("sketch dimensions must be positive")
        self.heavy_buckets = heavy_buckets
        self.light_counters = light_counters
        self.light_rows = light_rows
        self.eviction_lambda = eviction_lambda
        # bucket -> (flow, positive_votes, negative_votes, flag)
        self._heavy: List[Optional[Tuple[str, int, int, bool]]] = \
            [None] * heavy_buckets
        self._light = [[0] * light_counters for _ in range(light_rows)]

    # ------------------------------------------------------------------
    def insert(self, flow: str, count: int = 1) -> None:
        index = _hash(flow, 0) % self.heavy_buckets
        bucket = self._heavy[index]
        if bucket is None:
            self._heavy[index] = (flow, count, 0, False)
            return
        owner, pos, neg, flag = bucket
        if owner == flow:
            self._heavy[index] = (owner, pos + count, neg, flag)
            return
        neg += count
        if neg >= self.eviction_lambda * pos:
            # Vote out the incumbent: its count decays to the light part,
            # the newcomer takes the bucket with the "flag" marking that
            # part of its history lives in the light part.
            self._light_insert(owner, pos)
            self._heavy[index] = (flow, count, 1, True)
        else:
            self._heavy[index] = (owner, pos, neg, flag)
            self._light_insert(flow, count)

    def _light_insert(self, flow: str, count: int) -> None:
        for row in range(self.light_rows):
            slot = _hash(flow, row + 1) % self.light_counters
            self._light[row][slot] += count

    # ------------------------------------------------------------------
    def query(self, flow: str) -> int:
        index = _hash(flow, 0) % self.heavy_buckets
        bucket = self._heavy[index]
        estimate = 0
        in_heavy_clean = False
        if bucket is not None and bucket[0] == flow:
            _owner, pos, _neg, flag = bucket
            estimate += pos
            in_heavy_clean = not flag
        if not in_heavy_clean:
            estimate += min(self._light[row][_hash(flow, row + 1)
                                             % self.light_counters]
                            for row in range(self.light_rows))
        return estimate


@dataclass
class SketchPacket:
    kind: str                       # report | query | reply
    src: str
    dst: str
    flows: Dict[str, int] = field(default_factory=dict)
    size_bytes: int = 256
    ecn: bool = False


class SketchSwitch(PlainSwitch):
    """Runs an ElasticSketch at line rate; queries bounce sub-RTT."""

    def __init__(self, sim: Simulator, name: str,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 sketch: Optional[ElasticSketch] = None):
        super().__init__(sim, name, cal)
        self.sketch = sketch or ElasticSketch()

    def receive(self, packet) -> None:
        self.stats.add("rx_pkts")
        if isinstance(packet, SketchPacket):
            self.sim.schedule(self.cal.switch_pipeline_delay_s,
                              self._process, packet)
            return
        self.sim.schedule(self.cal.switch_pipeline_delay_s,
                          self._forward, packet)

    def _process(self, packet: SketchPacket) -> None:
        if packet.kind == "report":
            for flow, count in packet.flows.items():
                self.sketch.insert(flow, count)
            self.stats.add("reports")
            # Counting is a pure switch operation: the packet is consumed
            # (no server involvement at all — ElasticSketch's edge over
            # generic frameworks).
            return
        if packet.kind == "query":
            reply = SketchPacket(
                kind="reply", src=self.name, dst=packet.src,
                flows={f: self.sketch.query(f) for f in packet.flows})
            self.stats.add("queries")
            self.send(reply, self.next_hop_for(packet.src))
            return
        self._forward(packet)
