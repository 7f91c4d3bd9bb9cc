"""Work-counter pins for the five end-to-end benchmark workloads.

Each ``benchmarks/e2e`` workload runs once here at 1/20 of its benchmark
size (the harness's ``--smoke`` scale), seed 0, and its noise-free work
counters are pinned: scheduled events, link transmissions, and packets
and wire bytes per op.  Unlike the benchmark's wall-time metrics these
read the same on every machine, so a change that removes (or adds) work
shows here as a moved pin, in tier-1.

The workloads module is imported from its file as it is; nothing under
``benchmarks/e2e`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCALE = 0.05
SEED = 0

_WORKLOADS_PY = (Path(__file__).resolve().parent.parent / "benchmarks"
                 / "e2e" / "workloads.py")

#: workload -> (netsim.events, netsim.link_pkts, protocol.pkts_per_op,
#: protocol.wire_bytes_per_op)
GOLDEN_WORK = {
    "fabric_rackscale": (9474, 9074, 5.155681818181818, 4029.2363636363634),
    "paxos_small": (5859, 2800, 14.0, 1376.3),
    "train_lossy": (3115, 1453, 0.22703125, 41.16625),
    "train_sync": (2570, 1248, 0.195, 36.795),
    "wordcount_zipf": (912, 416, 0.06837606837606838, 19.789612097304406),
}


def _workloads():
    name = "e2e_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, _WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module       # dataclasses look the module up
        spec.loader.exec_module(module)
    return module.WORKLOADS


def _work(name):
    workload = _workloads()[name](SCALE)
    ctx = workload.setup(SEED)
    inputs = workload.inputs(SEED)
    report = workload.report(ctx, inputs, workload.run(ctx, inputs))
    counters = report.counters
    return report.failed, (counters["netsim.events"],
                           counters["netsim.link_pkts"],
                           counters["protocol.pkts_per_op"],
                           counters["protocol.wire_bytes_per_op"])


@pytest.mark.parametrize("name", sorted(GOLDEN_WORK))
def test_work_counters_pinned(name):
    failed, work = _work(name)
    assert failed == 0
    assert work == GOLDEN_WORK[name]
