"""Reference kernel: the yardstick host times are reported against.

The benchmark box (2 vCPUs of a shared host) drifts between speed states
that last from under a second to minutes and differ by 25-100 % -- for
everything alike: training, Paxos, the flow fabric and a bare ``import
repro`` slow down together.  Neither the median nor the minimum of raw
wall times repeats under that (README, "Why calibrated time").  So every
timed region is bracketed by this fixed kernel and reported in *reference
seconds*::

    reference_s = measured_s * REFERENCE_KERNEL_S / kernel_s_beside_it

i.e. the time the region would take on a machine on which the kernel runs
in ``REFERENCE_KERNEL_S`` (the box the baseline was recorded on, in its
fast state).  The kernel lives here, outside ``src/``, so no change to the
program under test can move it.
"""

import struct
import time
from heapq import heappop, heappush

__all__ = ["REFERENCE_KERNEL_S", "kernel", "reference_seconds"]

#: kernel time on the baseline box in its fast state
REFERENCE_KERNEL_S = 0.013

_HEADER = struct.Struct("<IdqqI")
_ballast = []      # ~4 MB of floats the kernel strides through


class _Packet:
    __slots__ = ("src", "dst", "seq", "size", "payload", "hops")

    def __init__(self, src, dst, seq, size):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.payload = None
        self.hops = 0


class _Node:
    def __init__(self, name):
        self.name = name
        self.stats = {}
        self.table = {}

    def receive(self, pkt, now):
        self.stats["rx"] = self.stats.get("rx", 0) + 1
        pkt.hops += 1
        self.table[pkt.seq & 255] = pkt
        return now + pkt.size * 8e-9


def _sink():
    total = 0
    while True:
        pkt = yield
        total += pkt.size


def kernel(n: int = 12000) -> float:
    """Time a toy packet simulation with the program's instruction mix:
    slotted objects allocated and dropped, a heap of (time, seq, ...)
    tuples, dict counters, generator resumption, struct packing, string
    formatting, and a working set about the size of the L2.  A tight loop that
    fits the L1 tracked the machine's state visibly worse.  Returns
    seconds."""
    if not _ballast:
        _ballast.extend(float(i) for i in range(100000))
    data = _ballast
    start = time.perf_counter()
    nodes = [_Node(f"n{i}") for i in range(16)]
    sinks = [_sink() for _ in nodes]
    for sink in sinks:
        next(sink)
    heap = []
    now = 0.0
    acc = 0.0
    for i in range(n):
        dst = (i * 7) & 15
        pkt = _Packet(nodes[i & 15].name, nodes[dst].name, i,
                      64 + (i * 37) % 1400)
        heappush(heap, (now + ((i * 7919) % 1009) * 1e-9, i, dst, pkt))
        if len(heap) > 48:
            now, _seq, at, got = heappop(heap)
            done = nodes[at].receive(got, now)
            sinks[at].send(got)
            if i % 8 == 0:
                wire = _HEADER.pack(got.seq, done, got.size, at, got.hops)
                seq = _HEADER.unpack(wire)[0]
                got.payload = (f"{got.src}->{got.dst}:{seq}", wire)
            acc += data[(i * 6151) % 100000]
    sorted(nodes, key=lambda node: node.stats.get("rx", 0))
    return time.perf_counter() - start


def reference_seconds(measured_s: float, k_before: float, k_after: float
                      ) -> float:
    return measured_s * REFERENCE_KERNEL_S / ((k_before + k_after) / 2.0)
