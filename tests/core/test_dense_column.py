"""The dense SyncAgtr path through the stubs: one int32 column per tensor.

``stub.Update(tensor)`` encodes the tensor into a value column in one
codec call, the agent slices that column into packets, result packets
are slice-assigned into a preallocated result column and one codec call
turns it back into the reply.  These tests drive that path through the
public stubs and check the places where it hands over to a slower one:
overflow replay, lazy-clear baselines, loss and duplication — plus the
property that makes it worth having: host work per call in ``core`` and
the quantiser no longer grows with the tensor.
"""

import dataclasses
import os
import random

import pytest

from repro.apps.training import GRAD_PROTO, gradient_filter
from repro.control import build_rack
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.inc import Task
from repro.inc.app import AppConfig
from repro.inc.client_agent import _ChunkState, _TaskState
from repro.inc.memory import MemoryRegion
from repro.netsim import CompositeFault, Duplicate, RandomLoss, Simulator
from repro.protocol import (ClearPolicy, CntFwdSpec, ForwardTarget, KVBlock,
                            Packet, RIPProgram)

from ..callcount import count_calls, package_of

SYNC_PROGRAM = RIPProgram(
    app_name="DC", get_field="r.t", add_to_field="q.t",
    cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2))


def stub_deployment(workers, clear="copy", loss_factory=None, seed=3):
    dep = build_rack(workers, 1, seed=seed, loss_factory=loss_factory)
    service = NetRPCService.from_text(
        GRAD_PROTO, "GradientService",
        {"agtr.nf": gradient_filter(workers, clear=clear, precision=6)})
    reg = register_service(dep, service, server="s0",
                           clients=dep.client_names, value_slots=4096,
                           counter_slots=512)
    stubs = [Channel(reg, name).stub() for name in dep.client_names]
    return dep, reg, stubs


def all_reduce(dep, reg, stubs, grads):
    """``grads[w][r]`` is worker w's tensor in round r; returns
    ``{(w, r): (reply tensor, CallInfo)}``."""
    request = reg.binding("Update").request
    out = {}

    def worker(w):
        for r, tensor in enumerate(grads[w]):
            reply, info = yield stubs[w].call_async(
                "Update", request(tensor=tensor), round=r)
            out[(w, r)] = (reply.tensor, info)

    sim = dep.sim
    sim.run_until(sim.all_of([sim.process(worker(w))
                              for w in range(len(stubs))]),
                  limit=sim.now + 5.0)
    return out


def random_tensors(workers, rounds, length, seed):
    rng = random.Random(seed)
    return [[[rng.uniform(-1.0, 1.0) for _ in range(length)]
             for _ in range(rounds)] for _ in range(workers)]


def _assert_sums(out, grads, exact=()):
    for (_w, r), (tensor, _info) in out.items():
        columns = list(zip(*(worker[r] for worker in grads)))
        assert len(tensor) == len(columns)
        for index, (got, column) in enumerate(zip(tensor, columns)):
            if index in exact:
                assert got == sum(column)
            else:
                assert abs(got - sum(column)) <= \
                    len(grads) * 0.5e-6 + 1e-12


class TestRecoveryPaths:
    def test_overflowed_chunk_is_replayed_from_the_value_slice(self):
        # 2000.0 is 2.0e9 in fixed point: one fits int32, two do not.
        # Chunk 1 (indices 32..63) saturates on the switch, the agents
        # replay their raw slices and the server's 64-bit sum comes
        # back into the same positions; chunks 0 and 2 never notice.
        dep, reg, stubs = stub_deployment(2)
        grads = random_tensors(2, 1, 72, seed=1)
        for worker in grads:
            worker[0][40] = 2000.0
        out = all_reduce(dep, reg, stubs, grads)
        _assert_sums(out, grads, exact={40})
        for tensor, info in out.values():
            assert tensor[40] == 4000.0
            assert info.overflow_chunks == 1
            assert info.mapped_pairs == 72 and info.fallback_pairs == 0

    def test_lazy_clear_values_are_baseline_adjusted_by_key(self):
        # Lazy clearing leaves the registers dirty: round r reads the
        # running total and the agent subtracts what it saw last time.
        # That adjustment is per address, so these results never take
        # the slice fast path — and must come out as exact per-round
        # sums all the same, in every round.
        dep, reg, stubs = stub_deployment(2, clear="lazy")
        grads = random_tensors(2, 3, 70, seed=2)
        out = all_reduce(dep, reg, stubs, grads)
        assert len(out) == 6
        _assert_sums(out, grads)
        # One baseline per register touched: the by-key path ran.
        for index in range(2):
            state = dep.client_agent(index).app_state("DT-1")
            assert len(state.lazy_baseline) == 70

    def test_loss_and_duplication_return_the_lossless_reply(self):
        grads = random_tensors(2, 3, 1000, seed=4)
        clean = all_reduce(*stub_deployment(2), grads)
        dep, reg, stubs = stub_deployment(
            2, loss_factory=lambda: CompositeFault(
                [RandomLoss(0.05), Duplicate(0.2)]))
        faulty = all_reduce(dep, reg, stubs, grads)
        assert {key: tensor for key, (tensor, _info) in faulty.items()} == \
            {key: tensor for key, (tensor, _info) in clean.items()}
        # The faults were live: packets were lost, resent and doubled.
        snap = dep.metrics.snapshot()

        def total(suffix):
            return sum(v for k, v in snap.items() if k.endswith(suffix))

        assert total(".wire_drops") > 0 and total(".dup_pkts") > 0
        assert total(".flows.retransmits") > 0

    def test_a_late_duplicate_cannot_reassign_a_resolved_chunk(self):
        dep = build_rack(2, 1)
        (config,) = dep.controller.register(
            [SYNC_PROGRAM], server="s0", clients=dep.client_names,
            value_slots=2048, counter_slots=512, linear=True)
        agent = dep.client_agent(0)
        state = agent.app_state(config.program.app_name)
        task = Task(app=config, column=[1] * 40)
        done = agent.submit(task)
        tstate = state.tasks[task.task_id]

        def result(values, offset):
            keys = list(range(offset, offset + len(values)))
            block = KVBlock.from_columns(keys, values, mapped_mask=-1,
                                         keys=keys)
            return Packet(gaid=config.gaid, src="c1", dst="c0", kv=block,
                          task_id=task.task_id, offset=offset,
                          round=task.round, is_mcast=True)

        agent._record_result(state, config, result([7] * 32, 0),
                             from_server=False)
        assert tstate.column[:32] == [7] * 32 and tstate.unresolved == 1
        agent._record_result(state, config, result([9] * 32, 0),
                             from_server=False)           # the duplicate
        assert tstate.column[:32] == [7] * 32 and tstate.unresolved == 1
        agent._record_result(state, config, result([5] * 8, 32),
                             from_server=False)
        assert done.triggered
        assert done.value.column == [7] * 32 + [5] * 8
        # Row-style readers see the same result as a dict.
        assert done.value.values == dict(enumerate([7] * 32 + [5] * 8))


class TestResultColumn:
    """``_TaskState.assign`` / ``store``: which results take the slice."""

    @staticmethod
    def _state(clear="copy", size=40):
        program = dataclasses.replace(SYNC_PROGRAM,
                                      clear=ClearPolicy(clear))
        config = AppConfig(gaid=1, program=program, server="s0",
                           clients=("c0", "c1"),
                           value_region=MemoryRegion(0, 64),
                           counter_region=MemoryRegion(64, 8), linear=True)
        tstate = _TaskState(Task(app=config, column=list(range(size))),
                            Simulator().event())
        chunk = _ChunkState(32, list(range(32, size)), mapped=True,
                            awaiting_result=True)
        return tstate, chunk

    @staticmethod
    def _block(keys, values):
        return KVBlock.from_columns([0] * len(values), values,
                                    mapped_mask=-1, keys=keys)

    def test_exact_keys_are_slice_assigned(self):
        tstate, chunk = self._state()
        assert tstate.assign(chunk, self._block(list(range(32, 40)),
                                                [3] * 8))
        assert tstate.column == [0] * 32 + [3] * 8

    @pytest.mark.parametrize("keys", [
        list(range(32, 39)),                # partial
        list(range(32, 41)),                # another client's longer chunk
        list(range(33, 41)),                # shifted
        [32, 33, 34, 35, 36, 37, 39, 38],   # permuted
        None,                               # keys elided
    ], ids=["partial", "longer", "shifted", "permuted", "elided"])
    def test_any_other_key_set_falls_back_by_key(self, keys):
        tstate, chunk = self._state()
        n = 8 if keys is None else len(keys)
        assert not tstate.assign(chunk, self._block(keys, [3] * n))
        assert tstate.column == [0] * 40

    def test_lazy_results_never_take_the_slice(self):
        tstate, chunk = self._state(clear="lazy")
        assert not tstate.assign(chunk, self._block(list(range(32, 40)),
                                                    [3] * 8))

    def test_by_key_store_scatters_and_ignores_foreign_indices(self):
        tstate, _chunk = self._state()
        tstate.store({39: 4, 32: 1, 40: 9, 1000: 9})
        assert tstate.column == [0] * 32 + [1] + [0] * 6 + [4]
        assert len(tstate.column) == 40


class TestHostWorkPerCall:
    @staticmethod
    def _python_calls(length):
        """Python-level calls into ``repro.core`` and the quantiser made
        by one stub-driven ``Update`` of ``length`` floats."""
        dep, reg, stubs = stub_deployment(1)
        tensor = random_tensors(1, 1, length, seed=length)[0][0]
        request = reg.binding("Update").request(tensor=tensor)

        def core_or_quantiser(filename):
            package = package_of(filename)
            if package == "core" or (package == "protocol" and
                                     os.path.basename(filename) == "arith.py"):
                return "counted"
            return None

        (reply, info), calls = count_calls(stubs[0].call, "Update", request,
                                           bucket=core_or_quantiser)
        assert info.mapped_pairs == length
        assert len(reply.tensor) == length
        assert max(abs(a - b) for a, b in zip(reply.tensor, tensor)) \
            <= 0.5e-6 + 1e-12
        return calls["counted"]

    def test_core_and_quantiser_calls_do_not_grow_with_the_tensor(self):
        # Per value the row path made one Python call to encode and one
        # to decode; the column path makes none, so a tensor four times
        # as long costs core and the quantiser exactly the same calls.
        small = self._python_calls(1024)
        large = self._python_calls(4096)
        assert small == large
        assert 0 < small < 100


class TestServerRoundStore:
    """The server backs up each round's aggregate chunk by chunk only for
    a bound round handler; nothing else reads that store."""

    @staticmethod
    def _round_state(dep, reg):
        return dep.server_agents["s0"].app_state(reg.service.app_name)

    def test_without_a_round_handler_no_round_state_is_kept(self):
        class WatchedRounds(dict):
            def setdefault(self, key, default=None):
                writes.append(key)
                return super().setdefault(key, default)

        writes = []
        dep, reg, stubs = stub_deployment(2)
        self._round_state(dep, reg).rounds = WatchedRounds()
        grads = random_tensors(2, 3, 70, seed=4)
        _assert_sums(all_reduce(dep, reg, stubs, grads), grads)
        assert self._round_state(dep, reg).rounds == {}
        assert writes == []          # not even a round in progress

    def test_a_handler_bound_first_sees_every_round_in_full(self):
        dep, reg, stubs = stub_deployment(2)
        rounds = {}
        ServerStub(reg).bind_round(
            lambda r, values: rounds.setdefault(r, dict(values)))
        grads = random_tensors(2, 3, 70, seed=4)
        out = all_reduce(dep, reg, stubs, grads)
        codec = reg.config("Update").codec
        assert sorted(rounds) == [0, 1, 2]
        for r, values in rounds.items():
            assert sorted(values) == list(range(70))
            # The backed-up aggregate is what every worker read back.
            assert codec.decode_many([values[i] for i in range(70)]) == \
                out[(0, r)][0] == out[(1, r)][0]
        assert self._round_state(dep, reg).rounds == {}
