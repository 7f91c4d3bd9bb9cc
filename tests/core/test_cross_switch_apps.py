"""Applications running across the dumbbell (clients and servers on
opposite switches), exercising multi-hop routing through the RPC API."""

import pytest

from repro.apps import LockService, WordCountJob
from repro.control import build_chain
from repro.netsim import scaled
from repro.workloads import SyntheticCorpus, word_count

CAL = scaled()


class TestWordCountAcrossDumbbell:
    def test_counts_exact_across_switches(self):
        dep = build_chain(2, 2, 1, cal=CAL)
        corpus = SyntheticCorpus(vocabulary_size=150, seed=8)
        shards = {"c0": list(corpus.documents(3)),
                  "c1": list(corpus.documents(3))}
        job = WordCountJob(dep, batch_words=64)
        result = job.run(shards)
        expected = word_count(doc for docs in shards.values()
                              for doc in docs)
        assert result.counts == {w: expected.get(w, 0)
                                 for w in result.counts} and \
            all(result.counts.get(w, 0) == c for w, c in expected.items())


class TestLockAcrossDumbbell:
    def test_mutual_exclusion_across_switches(self):
        dep = build_chain(2, 2, 1, cal=CAL)
        lock = LockService(dep)
        lock.acquire("c0", "L")
        blocked = lock.acquire_async("c1", "L")
        dep.sim.run(until=dep.sim.now + 0.003)
        assert not blocked.triggered
        lock.release("c0", "L")
        dep.sim.run_until(blocked, limit=dep.sim.now + 10.0)

    def test_sub_rtt_grant_on_retry_path(self):
        """Once granted a mapping, lock attempts bounce at the edge switch."""
        dep = build_chain(2, 1, 1, cal=CAL)
        lock = LockService(dep)
        lock.acquire("c0", "L")     # grants the mapping
        lock.release("c0", "L")
        dep.sim.run(until=dep.sim.now + 0.01)
        before = dep.server_agent(0).stats["data_rx"]
        start = dep.sim.now
        lock.acquire("c0", "L")
        # Granted by the switch without server involvement.
        assert dep.server_agent(0).stats["data_rx"] == before
        assert dep.sim.now - start < 100e-6
