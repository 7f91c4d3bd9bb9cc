"""Importable calibration/self-test workloads for the sweep engine.

The engine's failure-containment and overlap properties need runnable
workloads that are importable from worker processes (a spec names its
callable by dotted path, so closures defined in test bodies cannot be
used).  These live in the package itself: the test suite uses
:func:`blocking_run` to measure fan-out overlap independent of core
count, and the rest to provoke each failure mode.
"""

from __future__ import annotations

import os
import time

from repro.netsim import Simulator

__all__ = ["blocking_run", "checksum_run", "crash_run", "pid_run",
           "raise_run", "runaway_simulation"]


def blocking_run(wall_s: float = 0.1, tag: int = 0) -> int:
    """Hold a worker for ``wall_s`` of wall time without burning CPU.

    A sweep of these measures the engine's *overlap*: N blocking runs
    finish in ~``wall_s`` on N workers vs ``N * wall_s`` serially, on
    any machine — including single-core CI — so it calibrates engine
    overhead separately from CPU-bound scaling.
    """
    time.sleep(wall_s)
    return tag


def checksum_run(seed: int = 0, n: int = 1000) -> int:
    """Pure seeded computation — the determinism property-test subject."""
    sim = Simulator(seed=seed)
    acc = 0
    for i in range(n):
        acc = (acc * 131 + sim.rng.randrange(1 << 30) + i) % (1 << 61)
    return acc


def pid_run() -> int:
    """Report the executing process id (worker-placement assertions)."""
    return os.getpid()


def raise_run(message: str = "boom") -> None:
    """Fail at the Python level — must become RunFailure('error')."""
    raise ValueError(message)


def crash_run(code: int = 3) -> None:
    """Kill the worker process outright — RunFailure('crash')."""
    os._exit(code)


def nested_sweep_run(width: int = 3) -> dict:
    """Run a sweep *from inside* a sweep worker.

    Nested engines must degrade to in-process execution (the outer
    engine owns the fan-out and pool workers may not have children);
    this reports what the nested engine actually did.
    """
    from . import RunSpec, SweepEngine, default_workers

    engine = SweepEngine()
    outcomes = engine.run(
        [RunSpec("repro.sweep.diagnostics.checksum_run", {"n": 50},
                 seed=seed) for seed in range(width)])
    return {"effective_workers": default_workers(),
            "pid": os.getpid(),
            "values": [outcome.value for outcome in outcomes]}


def runaway_simulation(step_s: float = 1e-6) -> None:
    """A simulation that never quiesces: an endless self-rescheduling
    process.  Under a sweep timeout the simulator's wall-deadline guard
    cancels it; without one it would spin forever."""
    sim = Simulator(seed=0)

    def spin():
        while True:
            yield sim.timeout(step_s)

    sim.process(spin(), name="runaway")
    sim.run()
