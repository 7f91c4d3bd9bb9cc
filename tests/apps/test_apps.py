"""Integration tests for the four application types (paper Table 1)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.apps import (
    FlowMonitor,
    LockService,
    PaxosCluster,
    TrainingJob,
    WordCountJob,
)
from repro.control import build_rack
from repro.netsim import scaled
from repro.workloads import MODELS, SyntheticCorpus, SyntheticTrace, word_count

CAL = scaled()


class TestTraining:
    def test_training_completes_iterations(self):
        dep = build_rack(2, 1, cal=CAL)
        job = TrainingJob(dep, MODELS["AlexNet"], scale=20_000)
        report = job.run(iterations=3)
        assert report.iterations == 3
        assert all(count == 3 for count in job.iterations_done.values())
        assert report.images_per_second > 0

    def test_communication_bound_model_benefits_less_from_compute(self):
        """VGG16 (comm-heavy) must train slower than AlexNet per image."""
        speeds = {}
        for name in ("VGG16", "AlexNet"):
            dep = build_rack(2, 1, cal=CAL)
            job = TrainingJob(dep, MODELS[name], scale=40_000)
            speeds[name] = job.run(iterations=2).images_per_second
        assert speeds["AlexNet"] > speeds["VGG16"]

    def test_aggregates_are_shared_across_workers(self):
        dep = build_rack(2, 1, cal=CAL)
        job = TrainingJob(dep, MODELS["ResNet50"], scale=50_000)
        seen = {}
        job.server_stub.bind_round(lambda r, values: seen.update({r: values}))
        job.run(iterations=1)
        assert 0 in seen

    def test_gradients_do_not_depend_on_the_string_hash_seed(self):
        """Two interpreters with different PYTHONHASHSEED must agree on
        the first round's aggregate: worker gradients were once seeded
        with ``hash(worker)``, which changes per process."""
        script = textwrap.dedent("""
            import json
            from repro.apps import TrainingJob
            from repro.control import build_rack
            from repro.workloads import MODELS
            job = TrainingJob(build_rack(2, 1), MODELS["ResNet50"],
                              scale=50_000)
            seen = {}
            job.server_stub.bind_round(
                lambda r, values: seen.update({r: values}))
            job.run(iterations=1)
            print(json.dumps(sorted(seen[0].items())))
        """)
        aggregates = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            aggregates.append(json.loads(done.stdout))
        assert aggregates[0] == aggregates[1]
        assert any(value for _index, value in aggregates[0])


class TestWordCount:
    def test_counts_are_exact(self):
        dep = build_rack(2, 1, cal=CAL)
        corpus = SyntheticCorpus(vocabulary_size=200, seed=3)
        shards = {"c0": list(corpus.documents(4)),
                  "c1": list(corpus.documents(4))}
        job = WordCountJob(dep, batch_words=128)
        result = job.run(shards)
        expected = word_count(doc for docs in shards.values()
                              for doc in docs)
        for word, count in expected.items():
            assert result.counts.get(word, 0) == count

    def test_cache_hit_ratio_grows_with_reuse(self):
        dep = build_rack(1, 1, cal=CAL)
        corpus = SyntheticCorpus(vocabulary_size=50, seed=1)
        docs = list(corpus.documents(20))  # heavy word reuse
        job = WordCountJob(dep, batch_words=64)
        result = job.run({"c0": docs})
        assert result.cache_hit_ratio > 0.3


class TestMonitoring:
    def test_flow_counts_exact(self):
        dep = build_rack(2, 1, cal=CAL)
        trace = SyntheticTrace(n_flows=100, seed=2)
        records = list(trace.packets(600))
        shards = {"c0": records[:300], "c1": records[300:]}
        monitor = FlowMonitor(dep, batch_flows=16)
        monitor.feed(shards)
        dep.sim.run(until=dep.sim.now + 0.1)
        truth = trace.exact_counts(records)
        top = sorted(truth, key=truth.get, reverse=True)[:20]
        counts = monitor.query(top)
        for flow in top:
            assert counts[flow] == truth[flow]

    def test_collector_receives_payloads(self):
        dep = build_rack(1, 1, cal=CAL)
        trace = SyntheticTrace(n_flows=10, seed=2)
        monitor = FlowMonitor(dep, batch_flows=8)
        monitor.feed({"c0": list(trace.packets(50))})
        assert monitor.collector_log  # "report" payloads reached the server

    def test_query_latency_is_sub_server_rtt(self):
        """A mapped counter query bounces at the switch."""
        dep = build_rack(1, 1, cal=CAL)
        trace = SyntheticTrace(n_flows=5, seed=2)
        records = list(trace.packets(100))
        monitor = FlowMonitor(dep, batch_flows=4)
        monitor.feed({"c0": records})
        dep.sim.run(until=dep.sim.now + 0.05)
        flow_id = records[0].flow_id
        before = dep.server_agent(0).stats["data_rx"]
        monitor.query([flow_id])
        assert dep.server_agent(0).stats["data_rx"] == before


class TestPaxos:
    def make_cluster(self, dep):
        return PaxosCluster(dep, proposers=["c0", "c1"],
                            acceptors=["c2", "c3"],
                            learners=["c4", "c5", "c6"])

    def test_all_instances_decided(self):
        dep = build_rack(7, 1, cal=CAL)
        cluster = self.make_cluster(dep)
        report = cluster.run(50, window=4)
        assert len(report.decided) == 50

    def test_decisions_carry_proposed_values(self):
        dep = build_rack(7, 1, cal=CAL)
        cluster = self.make_cluster(dep)
        report = cluster.run(20, window=4)
        for instance, value in report.decided.items():
            assert value.startswith("cmd-")
            assert value.endswith(f"-{instance}")

    def test_latency_recorded_per_decision(self):
        dep = build_rack(7, 1, cal=CAL)
        cluster = self.make_cluster(dep)
        report = cluster.run(30, window=4)
        assert report.latency.count == 30
        assert report.latency.p(99) < 1e-3  # sub-millisecond consensus

    def test_learners_record_each_instance_once(self, monkeypatch):
        # Three learners see every decision; the first records it with
        # its proposer's value, the other two find it decided and do not
        # even decode the vote.
        dep = build_rack(7, 1, cal=scaled(host_pkt_cpu_s=1.5e-6,
                                          host_agent_cores=2))
        cluster = self.make_cluster(dep)
        decoded = []
        decode = PaxosCluster._decode_scalars

        def counting_decode(pkt, descriptor):
            decoded.append(descriptor.name)
            return decode(pkt, descriptor)

        monkeypatch.setattr(PaxosCluster, "_decode_scalars",
                            staticmethod(counting_decode))
        report = cluster.run(4000, window=2)
        assert report.decided == {
            i: f"cmd-c{i % 2}-{i}" for i in range(4000)}
        assert report.latency.count == 4000
        assert decoded.count("Vote") == 4000

    def test_colocated_proposer_and_acceptor_roles_never_retransmit(self):
        # c0 and c1 propose *and* accept, so a host holds a Propose task
        # and a CastVote task for the same instance (same round, offset
        # 0, different gaid).  Finishing the Propose used to erase the
        # vote's (gaid, round, offset) correlation entry too; the
        # decision multicast then matched nothing and the vote was
        # retransmitted until abandoned.
        dep = build_rack(7, 1, cal=CAL)
        cluster = PaxosCluster(dep, proposers=["c0", "c1"],
                               acceptors=["c0", "c1", "c2"],
                               learners=["c3", "c4"])
        report = cluster.run(400, window=2)
        assert report.decided == {
            i: f"cmd-c{i % 2}-{i}" for i in range(400)}
        snap = dep.metrics.snapshot()

        def total(suffix):
            return sum(value for name, value in snap.items()
                       if name.endswith(suffix))

        assert total(".flows.sent") == 1600     # 400 x (1 propose + 3 votes)
        assert total(".flows.retransmits") == 0
        assert total(".flows.abandoned") == 0


class TestLock:
    def test_acquire_release_cycle(self):
        dep = build_rack(2, 1, cal=CAL)
        lock = LockService(dep)
        lock.acquire("c0", "L")
        assert lock.holder_view("L") >= 1
        lock.release("c0", "L")
        dep.sim.run(until=dep.sim.now + 0.01)
        assert lock.holder_view("L") == 0

    def test_mutual_exclusion(self):
        dep = build_rack(2, 1, cal=CAL)
        lock = LockService(dep)
        lock.acquire("c0", "L")
        blocked = lock.acquire_async("c1", "L")
        dep.sim.run(until=dep.sim.now + 0.005)
        assert not blocked.triggered  # c1 spins while c0 holds the lock
        lock.release("c0", "L")
        dep.sim.run_until(blocked, limit=dep.sim.now + 5.0)

    def test_independent_locks_do_not_interfere(self):
        dep = build_rack(2, 1, cal=CAL)
        lock = LockService(dep)
        lock.acquire("c0", "A")
        lock.acquire("c1", "B")  # different lock: immediate grant
        assert lock.holder_view("A") >= 1
        assert lock.holder_view("B") >= 1
