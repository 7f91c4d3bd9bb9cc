"""A metamorphic relation of the performance model (ROADMAP item 3).

On a lossless run, a deeper window may not lower throughput and nothing
may be retransmitted: no paper number is needed to judge that.  Fig. 7's
Paxos cluster (``exp_paxos.PAXOS_CAL``, 1,000 instances, seed 0) breaks
it today: window 4 decides 285.7k msgs/s with no retransmit, window 8
219.1k msgs/s after 2,897 client retransmits.
"""

import pytest

from repro.apps import PaxosCluster
from repro.control import build_rack
from repro.experiments.exp_paxos import PAXOS_CAL


def _paxos_run(window):
    """Throughput and client retransmits of one lossless cluster run."""
    dep = build_rack(7, 1, cal=PAXOS_CAL, seed=0)
    cluster = PaxosCluster(dep, proposers=["c0", "c1"],
                           acceptors=["c2", "c3"],
                           learners=["c4", "c5", "c6"])
    report = cluster.run(1000, window=window)
    retransmits = sum(value for name, value in dep.metrics.snapshot().items()
                      if name.startswith("client.")
                      and name.endswith(".flows.retransmits"))
    return report.throughput_msgs_per_s, retransmits


@pytest.mark.xfail(strict=True, reason="retransmit storm past window 4: "
                   "the RTO breaks Karn's rule and has no variance term "
                   "(ROADMAP item 1)")
def test_a_deeper_window_neither_retransmits_nor_slows_paxos():
    shallow, _ = _paxos_run(4)
    deep, retransmits = _paxos_run(8)
    assert retransmits == 0
    assert deep >= shallow
