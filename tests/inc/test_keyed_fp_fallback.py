"""Keyed floating-point aggregation (agg=fadd / agg=fmax) off the fast path.

A map-addressed fp app whose switch reservation (4 registers) is smaller
than its key set (12 keys plus one overflow key) runs most pairs through
the server agent's fp software path, folds late cross traffic into
granted registers over the control plane, and recovers an overflowed
register from its preserved value plus the exact float64 residue.  The
first-level timeout (``retrieve_app``) then drains every register into
the server's software map.  Every query reply and that final server
state must match a float64 oracle over the values as encoded on the
wire: within ``sum_error_bound`` for fadd, exactly for fmax (an integer
max of ordered encodings loses nothing).

The default calibration's 5 ms LRU window outlasts the run, so no
mapping is evicted mid-run.  At the eviction calibration (25 us
windows) keys are evicted and re-granted under a new generation (under
fadd the overflow key's sticky register too, once per run at seeds 0
and 1); reads still carrying the old one are answered by the server.  Before grant generations they
read the cleared register (``big`` as 0.0 instead of 5.1e38 under fadd,
as -6.8e38, raw 0, instead of 6.8e38 under fmax).  Integer eviction is
judged against its oracles in ``test_eviction_oracle.py``.
"""

import math
import random

import pytest

from repro.control import build_rack
from repro.inc import Task
from repro.netsim import DEFAULT_CALIBRATION, scaled
from repro.protocol import AggOp, CntFwdSpec, ForwardTarget, RIPProgram

EVICTION_CAL = scaled(cache_update_window_s=25e-6)
KEYS = [f"k{i}" for i in range(12)]
BIG = "big"


def build(agg, seed, cal):
    dep = build_rack(2, 1, cal=cal, seed=seed)
    spec = CntFwdSpec(target=ForwardTarget.SRC)
    reduce_prog = RIPProgram(app_name="FP", add_to_field="r.kvs", agg=agg,
                             cntfwd=spec)
    query_prog = RIPProgram(app_name="FP", get_field="q.kvs", agg=agg,
                            cntfwd=spec)
    return dep, dep.controller.register(
        [reduce_prog, query_prog], server="s0", clients=["c0", "c1"],
        value_slots=4)


class Oracle:
    """float64 sum or max per key, over the decoded wire encodings."""

    def __init__(self, agg, codec):
        self.agg, self.codec = agg, codec
        self.contributions = {}

    def add(self, key, encoded):
        self.contributions.setdefault(key, []).append(
            self.codec.decode(encoded))

    def check(self, key, got):
        """``got`` is a float the system reports for ``key``."""
        values = self.contributions[key]
        if self.agg is AggOp.FMAX:
            assert got == max(values), key
        else:
            assert abs(got - math.fsum(values)) <= \
                self.codec.sum_error_bound(values), key


SEEDS = pytest.mark.parametrize("seed", [0, 1])
AGGS = pytest.mark.parametrize("agg", [AggOp.FADD, AggOp.FMAX],
                               ids=["fadd", "fmax"])


@SEEDS
@AGGS
def test_keyed_fp_matches_float64_oracle(agg, seed):
    run_against_oracle(agg, seed, DEFAULT_CALIBRATION)


@SEEDS
@AGGS
def test_keyed_fp_matches_float64_oracle_under_eviction(agg, seed):
    run_against_oracle(agg, seed, EVICTION_CAL)


def run_against_oracle(agg, seed, cal):
    evicting = cal is EVICTION_CAL
    dep, (reduce_cfg, query_cfg) = build(agg, seed, cal)
    codec = reduce_cfg.program.codec
    oracle = Oracle(agg, codec)
    sim = dep.sim
    server = dep.server_agent(0)
    state = server.app_state("FP")

    def push(client, items):
        encoded = [(key, codec.encode(value)[0]) for key, value in items]
        done = dep.client_agent(client).submit(
            Task(app=reduce_cfg, items=encoded, expect_result=False))
        result = sim.run_until(done, limit=sim.now + 1.0)
        for key, value in encoded:
            oracle.add(key, value)
        sim.run(until=sim.now + 2e-5)
        return result

    def query(client, keys):
        done = dep.client_agent(client).submit(
            Task(app=query_cfg, items=[(key, 0) for key in keys],
                 expect_result=True))
        result = sim.run_until(done, limit=sim.now + 1.0)
        assert sorted(result.values) == sorted(keys)
        for key in keys:
            oracle.check(key, codec.decode(result.values[key]))
        return result

    # The overflow key.  c0's first push maps it (a control-plane fold
    # into the fresh register); c1 holds no grant yet, so its push
    # crosses to the server and folds over the control plane as well.
    if agg is AggOp.FADD:
        # Two 0.75 * max adds overflow the register (sticky, preserved
        # value kept, delta kept in software); the mapped -0.75 * max
        # hits the sticky register and replays through the server.
        big = 0.75 * codec.max_value
        assert push(0, [(BIG, big)]).overflow_chunks == 0
        push(1, [(BIG, big)])
        assert push(0, [(BIG, -big)]).overflow_chunks == 1
    else:
        # fmax cannot overflow a register; its overflow is the encode
        # saturating, and the saturated encoding must win the max.
        assert codec.encode(10 * codec.base.max_value)[1]
        push(0, [(BIG, 10 * codec.base.max_value)])
        push(1, [(BIG, 1.0)])
        push(0, [(BIG, -5.0)])
    assert server.stats["replays"] >= 2

    rng = random.Random(seed)
    for _round in range(3):
        for client in (0, 1):
            push(client, [(key, rng.uniform(-100.0, 100.0))
                          for key in rng.sample(KEYS, 5)])
        for client in (0, 1):
            query(client, sorted(oracle.contributions))
    assert state.mm.stats["denied"] > 0           # reservation < key set
    assert server.stats["software_pairs"] > 0
    assert (state.mm.stats["evictions"] > 0) == evicting
    if agg is AggOp.FADD and not evicting:
        # The sticky register answers every query through the overflow
        # replay: preserved register value + float64 residue.
        assert query(0, [BIG]).overflow_chunks == 1

    # Drain the switch into software: the server's final state alone
    # must now hold every key's aggregate.
    sim.run(until=sim.now + 1e-4)
    mapped = len(state.mm.mapped_logicals())
    assert evicting or mapped == state.mm.capacity
    assert server.retrieve_app("FP") == mapped
    # The exact totals: float64 sums under fadd, max words under fmax.
    totals = state.soft.snapshot()
    for key in oracle.contributions:
        total = totals[key]
        oracle.check(key, total if agg is AggOp.FADD else codec.decode(total))
