"""Process-parallel sweep execution with a deterministic merge.

Every paper figure is a *sweep* — a grid of independent simulation runs,
each a pure function of (config, seed).  :class:`SweepEngine` fans a
list of :class:`RunSpec` out over a ``ProcessPoolExecutor`` and merges
results **by spec index**, so parallel output is bit-identical to serial
output regardless of completion order (the SimBricks recipe: parallelize
the independent instances, synchronize only at result boundaries).

Failure containment, in increasing order of violence:

* the callable raises → the worker catches it and ships a structured
  ``("error", ...)`` payload back; the sweep continues.
* the run overruns its wall-clock budget → the simulator's wall-deadline
  guard (:class:`repro.netsim.WallClockExceeded`) cancels it inside the
  worker, which reports ``("timeout", ...)``; the pool is not poisoned.
* the worker process *dies* (segfault, ``os._exit``, OOM kill) → the
  executor breaks; the engine collects everything that finished, then
  re-runs each unfinished spec in its own fresh single-worker pool so
  the crasher is identified exactly and charged a ``RunFailure("crash")``
  while innocent bystanders still complete.

``workers=1`` bypasses multiprocessing entirely (plain in-process loop,
same merge, same timeout guard) — the debugging escape hatch and the
reference ordering that the parallel path must reproduce bit-for-bit.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.netsim.simulator import (
    WallClockExceeded,
    set_global_wall_deadline,
)

from .spec import (
    RunFailure,
    RunResult,
    RunSpec,
    format_exception,
    resolve_callable,
)

__all__ = ["SweepEngine", "default_workers", "run_sweep", "sweep_values",
           "WORKERS_ENV"]

WORKERS_ENV = "REPRO_SWEEP_WORKERS"

# Engine-side backstop multiplier for a spec's timeout: the cooperative
# in-worker guard normally fires first; the backstop only matters when a
# run hangs outside any simulator loop (e.g. a native busy-wait).
_HARD_TIMEOUT_SLACK = 4.0
_HARD_TIMEOUT_FLOOR_S = 5.0

Outcome = Union[RunResult, RunFailure]


# Set (via pool initializer) in sweep worker processes: a nested sweep
# — an experiment's run() invoked as a spec of an outer sweep — must not
# fan out again.  Workers may be daemonic, and the outer sweep already
# owns the machine's parallelism; nested engines run in-process instead.
_IN_WORKER = False


def _mark_worker_process() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def default_workers() -> int:
    """Worker count: ``$REPRO_SWEEP_WORKERS``, else ``os.cpu_count()``.

    Inside a sweep worker process this is always 1 (nested sweeps run
    in-process; the outer engine owns the fan-out).
    """
    if _IN_WORKER:
        return 1
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _execute(fn_path: str, kwargs: Dict[str, Any],
             timeout_s: Optional[float]) -> Tuple[str, Any, str, float]:
    """Worker-side entry point: run one spec, never raise.

    Returns ``(status, value_or_message, traceback, wall_s)`` with
    status ``"ok"``, ``"timeout"`` or ``"error"`` — Python-level
    exceptions are *payload*, so the only thing that can surface as a
    future exception is the process itself dying.
    """
    start = perf_counter()
    if timeout_s is not None:
        set_global_wall_deadline(start + timeout_s)
    try:
        fn = resolve_callable(fn_path)
        value = fn(**kwargs)
        return ("ok", value, "", perf_counter() - start)
    except WallClockExceeded as exc:
        return ("timeout", f"exceeded {timeout_s}s wall budget: {exc}",
                "", perf_counter() - start)
    except BaseException as exc:   # noqa: BLE001 - containment by design
        return ("error", f"{type(exc).__name__}: {exc}",
                format_exception(exc), perf_counter() - start)
    finally:
        if timeout_s is not None:
            set_global_wall_deadline(None)


def _outcome(index: int, spec: RunSpec,
             payload: Tuple[str, Any, str, float]) -> Outcome:
    status, value, tb, wall = payload
    if status == "ok":
        return RunResult(index=index, value=value, wall_s=wall)
    return RunFailure(index=index, spec=spec, kind=status,
                      message=str(value), traceback=tb, wall_s=wall)


class SweepEngine:
    """Execute a list of :class:`RunSpec` and merge results in order."""

    def __init__(self, workers: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 mp_start_method: Optional[str] = None):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.timeout_s = timeout_s   # default per-run budget
        if mp_start_method is None:
            methods = multiprocessing.get_all_start_methods()
            mp_start_method = "fork" if "fork" in methods else methods[0]
        self.mp_start_method = mp_start_method

    # -- public API -----------------------------------------------------
    def run(self, specs: Iterable[RunSpec]) -> List[Outcome]:
        """Run every spec; outcome ``i`` always belongs to spec ``i``."""
        specs = list(specs)
        if not specs:
            return []
        if self.workers == 1 or _IN_WORKER:
            return self._run_inprocess(specs)
        return self._run_pool(specs)

    # -- serial reference path ------------------------------------------
    def _run_inprocess(self, specs: List[RunSpec]) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for index, spec in enumerate(specs):
            payload = _execute(spec.fn, spec.merged_kwargs(),
                               spec.timeout_s or self.timeout_s)
            outcomes.append(_outcome(index, spec, payload))
        return outcomes

    # -- parallel path --------------------------------------------------
    def _hard_timeout(self, spec: RunSpec) -> Optional[float]:
        budget = spec.timeout_s or self.timeout_s
        if budget is None:
            return None
        return max(budget * _HARD_TIMEOUT_SLACK, _HARD_TIMEOUT_FLOOR_S)

    def _run_pool(self, specs: List[RunSpec]) -> List[Outcome]:
        outcomes: List[Optional[Outcome]] = [None] * len(specs)
        ctx = multiprocessing.get_context(self.mp_start_method)
        broken = False
        try:
            with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(specs)),
                    mp_context=ctx,
                    initializer=_mark_worker_process) as pool:
                futures = {
                    index: pool.submit(_execute, spec.fn,
                                       spec.merged_kwargs(),
                                       spec.timeout_s or self.timeout_s)
                    for index, spec in enumerate(specs)}
                for index, future in futures.items():
                    spec = specs[index]
                    try:
                        payload = future.result(
                            timeout=self._hard_timeout(spec))
                    except _FuturesTimeout:
                        outcomes[index] = RunFailure(
                            index=index, spec=spec, kind="timeout",
                            message="engine-side hard timeout (run hung "
                                    "outside the simulator's wall guard)")
                    except BrokenProcessPool:
                        broken = True
                        break
                    else:
                        outcomes[index] = _outcome(index, spec, payload)
                if broken:
                    # Salvage every future that did complete before the
                    # pool broke; the rest re-run in quarantine below.
                    for index, future in futures.items():
                        if outcomes[index] is not None:
                            continue
                        if future.done() and future.exception() is None:
                            outcomes[index] = _outcome(index, specs[index],
                                                       future.result())
        except BrokenProcessPool:
            broken = True
        if any(outcome is None for outcome in outcomes):
            self._run_quarantined(specs, outcomes, ctx)
        return outcomes  # type: ignore[return-value]

    def _run_quarantined(self, specs: List[RunSpec],
                         outcomes: List[Optional[Outcome]], ctx) -> None:
        """Re-run unfinished specs one per fresh single-worker pool.

        Reached only after a worker death broke the shared pool.  Runs
        are pure functions of their spec, so re-running is safe; giving
        each suspect its own process identifies the crasher exactly.
        """
        for index, spec in enumerate(specs):
            if outcomes[index] is not None:
                continue
            try:
                with ProcessPoolExecutor(
                        max_workers=1, mp_context=ctx,
                        initializer=_mark_worker_process) as pool:
                    future = pool.submit(_execute, spec.fn,
                                         spec.merged_kwargs(),
                                         spec.timeout_s or self.timeout_s)
                    payload = future.result(timeout=self._hard_timeout(spec))
                    outcomes[index] = _outcome(index, spec, payload)
            except _FuturesTimeout:
                outcomes[index] = RunFailure(
                    index=index, spec=spec, kind="timeout",
                    message="engine-side hard timeout in quarantine")
            except BrokenProcessPool:
                outcomes[index] = RunFailure(
                    index=index, spec=spec, kind="crash",
                    message="worker process died while running this spec")


def run_sweep(specs: Iterable[RunSpec],
              workers: Optional[int] = None) -> List[Outcome]:
    """One-shot sweep with default engine settings."""
    return SweepEngine(workers=workers).run(specs)


def sweep_values(specs: Iterable[RunSpec],
                 workers: Optional[int] = None) -> List[Any]:
    """Run a sweep and unwrap values, re-raising the first failure.

    The experiment harnesses use this: a failed run must propagate as
    an exception exactly as it would have under the old serial loop.
    """
    values = []
    for outcome in run_sweep(specs, workers=workers):
        if isinstance(outcome, RunFailure):
            outcome.raise_()
        values.append(outcome.value)
    return values
