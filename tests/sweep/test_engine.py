"""Unit and property tests for the process-parallel sweep engine.

The contracts under test, in the ISSUE's words: deterministic merge
(parallel output bit-identical to serial, ordered by spec index), crash
isolation (a dead worker yields a structured ``RunFailure`` instead of
killing the sweep), and wall-clock timeouts that cancel a runaway run
without poisoning the pool.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import (
    RunFailure,
    RunResult,
    RunSpec,
    SweepEngine,
    SweepError,
    default_workers,
    sweep_values,
)
from repro.sweep.spec import resolve_callable

CHECKSUM = "repro.sweep.diagnostics.checksum_run"
PID = "repro.sweep.diagnostics.pid_run"
RAISE = "repro.sweep.diagnostics.raise_run"
CRASH = "repro.sweep.diagnostics.crash_run"
RUNAWAY = "repro.sweep.diagnostics.runaway_simulation"
BLOCK = "repro.sweep.diagnostics.blocking_run"


class TestRunSpec:
    def test_resolve_and_call(self):
        fn = resolve_callable(PID)
        assert fn() == os.getpid()
        spec = RunSpec(CHECKSUM, {"n": 10}, seed=4)
        assert spec.call() == resolve_callable(CHECKSUM)(seed=4, n=10)

    def test_seed_merges_into_kwargs(self):
        spec = RunSpec(CHECKSUM, {"n": 10}, seed=9)
        assert spec.merged_kwargs() == {"n": 10, "seed": 9}
        assert RunSpec(CHECKSUM, {"n": 10}).merged_kwargs() == {"n": 10}

    def test_bad_path_rejected(self):
        with pytest.raises(ValueError):
            resolve_callable("nodots")
        with pytest.raises(ModuleNotFoundError):
            resolve_callable("repro.not_a_module.fn")


class TestWorkersConfig:
    def test_env_var_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert default_workers() == 7
        assert SweepEngine().workers == 7

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "zero")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        with pytest.raises(ValueError):
            default_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == (os.cpu_count() or 1)


class TestInProcessFallback:
    def test_workers1_runs_in_this_process(self):
        outcomes = SweepEngine(workers=1).run([RunSpec(PID)])
        assert outcomes[0].value == os.getpid()

    def test_pool_runs_in_other_processes(self):
        outcomes = SweepEngine(workers=2).run([RunSpec(PID), RunSpec(PID)])
        assert all(o.value != os.getpid() for o in outcomes)

    def test_empty_sweep(self):
        assert SweepEngine(workers=2).run([]) == []


class TestFailureContainment:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_is_isolated(self, workers):
        specs = [RunSpec(RAISE, {"message": "kaboom"}),
                 RunSpec(CHECKSUM, {"n": 20}, seed=0)]
        failure, result = SweepEngine(workers=workers).run(specs)
        assert isinstance(failure, RunFailure) and not failure.ok
        assert failure.kind == "error"
        assert "kaboom" in failure.message
        assert "ValueError" in failure.traceback
        assert isinstance(result, RunResult) and result.ok

    def test_crash_is_isolated_and_attributed(self):
        specs = [RunSpec(CHECKSUM, {"n": 20}, seed=0),
                 RunSpec(CRASH),
                 RunSpec(CHECKSUM, {"n": 20}, seed=1)]
        outcomes = SweepEngine(workers=2).run(specs)
        assert outcomes[0].ok and outcomes[2].ok
        assert isinstance(outcomes[1], RunFailure)
        assert outcomes[1].kind == "crash"
        # merge order survived the pool breaking
        assert [o.index for o in outcomes] == [0, 1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runaway_run_times_out_without_poisoning(self, workers):
        specs = [RunSpec(RUNAWAY, timeout_s=0.3),
                 RunSpec(CHECKSUM, {"n": 20}, seed=2)]
        timeout, result = SweepEngine(workers=workers).run(specs)
        assert isinstance(timeout, RunFailure)
        assert timeout.kind == "timeout"
        assert result.ok

    def test_sweep_values_raises_structured_error(self):
        with pytest.raises(SweepError, match="kaboom"):
            sweep_values([RunSpec(RAISE, {"message": "kaboom"})], workers=1)


class TestDeterministicMerge:
    def test_order_is_spec_order_not_completion_order(self):
        # Spec 0 finishes last by construction; it must still come first.
        specs = [RunSpec(BLOCK, {"wall_s": 0.4, "tag": 0}),
                 RunSpec(BLOCK, {"wall_s": 0.01, "tag": 1}),
                 RunSpec(BLOCK, {"wall_s": 0.01, "tag": 2})]
        outcomes = SweepEngine(workers=3).run(specs)
        assert [o.value for o in outcomes] == [0, 1, 2]

    @settings(max_examples=5, deadline=None)
    @given(grid=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2 ** 20),
                  st.integers(min_value=1, max_value=200)),
        min_size=1, max_size=6))
    def test_parallel_equals_serial_on_random_grids(self, grid):
        specs = [RunSpec(CHECKSUM, {"n": n}, seed=seed)
                 for seed, n in grid]
        serial = SweepEngine(workers=1).run(specs)
        parallel = SweepEngine(workers=2).run(specs)
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_nested_sweep_degrades_to_inprocess(self):
        (outcome,) = SweepEngine(workers=2).run(
            [RunSpec("repro.sweep.diagnostics.nested_sweep_run",
                     {"width": 3})])
        report = outcome.value
        assert report["effective_workers"] == 1
        assert report["pid"] != os.getpid()
        expected = [RunSpec(CHECKSUM, {"n": 50}, seed=s).call()
                    for s in range(3)]
        assert report["values"] == expected
