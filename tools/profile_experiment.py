"""Profile one experiment module under cProfile.

Usage (from the repo root):

    PYTHONPATH=src python tools/profile_experiment.py exp_micro
    PYTHONPATH=src python tools/profile_experiment.py exp_loss \
        --sort cumtime --top 40 --kwargs '{"fast": false}'
    PYTHONPATH=src python tools/profile_experiment.py exp_micro \
        --dump /tmp/exp_micro.prof   # then: python -m pstats ...

    # sweep mode: profile a grid of runs through the sweep engine,
    # one cProfile dump per run
    PYTHONPATH=src python tools/profile_experiment.py exp_loss \
        --sweep '[{"seed": 0}, {"seed": 1}, {"seed": 2}, {"seed": 3}]' \
        --workers 4 --profile-dir /tmp/exp_loss_profiles

The positional argument is an ``repro.experiments`` module name (with
or without the package prefix); its ``run()`` is invoked with
``fast=True`` unless overridden via ``--kwargs``.  This is the loop the
hot-path work was steered by: optimize, re-profile, confirm the top of
the table moved.

``--sweep`` takes a JSON list of kwargs overlays; each grid point runs
``run(**{**kwargs, **overlay})`` in a sweep worker under its own
profiler, so a whole parameter grid profiles in one parallel pass and
each run's profile stays attributable.

    # e2e mode: one iteration of a benchmark workload, by function
    PYTHONPATH=src python tools/profile_experiment.py \
        --e2e wordcount_zipf --seed 5 --top 15

``--e2e`` profiles the run phase of one ``benchmarks/e2e`` workload
(after an unprofiled warm iteration, like the harness's traced child)
and prints the top functions by self time.  The harness's ``--trace 1``
splits the same time per *package*; this is the per-*function* view that
tells which function inside the package to open.  cProfile charges its
own per-call overhead to the code it measures, so it over-weights code
made of many small calls (on ``paxos_small`` it slows the run about 3x
and moves whole percentage points between layers): a row's share is a lead
to confirm with an unprofiled A/B on ``benchmarks/e2e/run.py``, not a
measurement.  What does not depend on the machine or the profiler is the
*number* of Python calls, printed after the table: in total, per op (and
per RPC where the workload counts them) and per ``repro.<package>`` —
the harness's ``<layer>.calls``, the figure the call-count pins in
``tests/`` bound — then the ten functions called most, per op and per
RPC: the ledger a call budget is written in.  The last line reports the
cyclic garbage collector over the unprofiled iteration — collections per
generation and seconds paused (``gc.callbacks``) — the cost of
allocating container objects per value, which no profile row shows.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import sys
from pathlib import Path
from time import perf_counter


def _print_scheduler_stats(sims: list) -> None:
    """Summarize scheduler_stats() across every simulator the run built.

    Counters are additive across simulators; the derived ratios
    (cohort size, spill rate, cancelled-timer ratio) are recomputed
    from the pooled counters so multi-simulator runs (warmup + measured,
    sweep grid points) report the blended truth rather than an average
    of averages.
    """
    if not sims:
        print("scheduler stats   : no simulators constructed during run")
        return
    totals = {}
    peak_spill = 0
    for sim in sims:
        stats = sim.scheduler_stats()
        peak_spill = max(peak_spill, stats["peak_spill_depth"])
        for key in ("events_scheduled", "cohorts_created",
                    "cohorts_drained", "timers_created",
                    "timers_cancelled"):
            totals[key] = totals.get(key, 0) + stats[key]
    events = totals["events_scheduled"]
    cohorts = totals["cohorts_created"]
    timers = totals["timers_created"]
    print(f"scheduler stats   : {len(sims)} simulator(s), "
          f"{events:,} events in {cohorts:,} cohorts")
    print(f"  avg cohort size : {events / cohorts if cohorts else 0.0:.2f} "
          f"events/bucket")
    print(f"  spill rate      : "
          f"{cohorts / events if events else 0.0:.4f} "
          f"(new-timestamp schedules / total)")
    print(f"  peak spill depth: {peak_spill:,} distinct pending timestamps")
    print(f"  timers          : {timers:,} armed, "
          f"{totals['timers_cancelled']:,} cancelled "
          f"({totals['timers_cancelled'] / timers if timers else 0.0:.1%} "
          f"cancelled-timer ratio)")


def _print_shard_imbalance(result: dict) -> None:
    """Barrier-wait / compute imbalance summary after a sharded run."""
    works = result.get("work_s") or []
    waits = result.get("barrier_wait_s") or []
    if not works:
        return
    total_work = sum(works)
    total_wait = sum(waits)
    busy = total_work + total_wait
    avg = total_work / len(works)
    slowest = max(range(len(works)), key=works.__getitem__)
    print(f"imbalance         : max/mean work "
          f"{works[slowest] / avg if avg > 0 else 0.0:.2f}x "
          f"(slowest shard {slowest}, {works[slowest] * 1e3:.1f} ms); "
          f"barrier wait {total_wait * 1e3:.1f} ms of "
          f"{busy * 1e3:.1f} ms busy "
          f"({total_wait / busy if busy > 0 else 0.0:.1%})")


def profile_sharded(name: str, run, kwargs: dict, args) -> int:
    """Profile a sharded experiment: one cProfile per shard worker.

    Requires a ``run()`` that accepts ``workers=`` and ``profile_dir=``
    (the ``exp_fattree`` scenario family).  Each shard's simulation
    work — and only that work; barrier waits and pipe traffic are
    outside the profiled region — lands in ``DIR/shard<N>.prof``, and
    the per-shard work vs barrier-wait breakdown shows where the wall
    time actually went.

    With ``--trace PATH`` the run also captures per-worker flight
    recorders and writes the merged multi-lane Perfetto timeline
    (``run()`` must accept ``trace=``; see DESIGN.md §4.11).
    """
    profile_dir = Path(args.profile_dir)
    profile_dir.mkdir(parents=True, exist_ok=True)
    run_kwargs = {**kwargs, "workers": args.shards,
                  "profile_dir": str(profile_dir)}
    if args.trace:
        run_kwargs["trace"] = args.trace
    start = perf_counter()
    result = run(**run_kwargs)
    wall = perf_counter() - start

    print(result["table"])
    _print_shard_imbalance(result)
    if args.trace:
        print(f"merged shard trace written to {result.get('trace_path')} "
              f"(metrics: {result.get('metrics_path')})")
    pooled = {}
    peak_spill = 0
    for stats in result["scheduler_stats"]:
        peak_spill = max(peak_spill, stats["peak_spill_depth"])
        for key in ("events_scheduled", "cohorts_created",
                    "cohorts_drained", "timers_created",
                    "timers_cancelled"):
            pooled[key] = pooled.get(key, 0) + stats[key]
    events = pooled["events_scheduled"]
    cohorts = pooled["cohorts_created"]
    print(f"pooled scheduler  : {len(result['scheduler_stats'])} shard "
          f"simulator(s), {events:,} events in {cohorts:,} cohorts "
          f"(avg {events / cohorts if cohorts else 0.0:.2f}/bucket, "
          f"peak spill {peak_spill:,})")
    print(f"run               : {result['rounds']} barriers, "
          f"{result['total_events']:,} events, "
          f"{result['events_per_sec']:,.0f} events/s, "
          f"{result['barriers_per_sec']:,.0f} barriers/s, "
          f"{wall:.2f}s wall (includes profiler overhead)")
    rounds = result["rounds"]
    print(f"transport         : {result['transport']}, "
          f"{result['messages_relayed']:,} boundary messages in "
          f"{result['frames_sent']:,} frames "
          f"({result['transport_bytes']:,} logical bytes, "
          f"{result['bytes_per_round']:,.0f} B/round, "
          f"{result['frames_sent'] / rounds if rounds else 0.0:.1f} "
          f"frames/round), "
          f"{result['horizon_rounds_skipped']:,} horizon rounds skipped"
          f"{', %d shm spills' % result['shm_spills'] if result['shm_spills'] else ''}")

    missing = 0
    for dump in sorted(profile_dir.glob("shard*.prof")):
        print(f"\n=== {dump} ===")
        stats = pstats.Stats(str(dump), stream=sys.stdout)
        stats.sort_stats(args.sort).print_stats(args.top)
    if not any(profile_dir.glob("shard*.prof")):
        missing = 1
        print(f"no shard profiles written under {profile_dir}/")
    return missing


def profile_single(name: str, run, kwargs: dict, args) -> None:
    from repro.netsim.simulator import track_simulators

    # Tracing is armed before and exported after the profiled region,
    # so the JSON export does not drown the experiment in the profile.
    if args.trace:
        from repro.obs import (export_trace, keep_registries, start_trace,
                               stop_trace)
        start_trace()

    sims: list = []
    track_simulators(sims)
    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    try:
        run(**kwargs)
    finally:
        profiler.disable()
        track_simulators(None)
        if args.trace:
            stop_trace()
    wall = perf_counter() - start

    if args.trace:
        try:
            trace_path, metrics_path = export_trace(args.trace)
        finally:
            keep_registries(False)
        print(f"trace written to {trace_path} (metrics: {metrics_path})")

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    _print_scheduler_stats(sims)
    sims.clear()
    print(f"{name}.run(**{kwargs}): {wall:.2f} s wall "
          f"(includes profiler overhead)")
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw stats written to {args.dump}")


class _GcMeter:
    """Counts cyclic-GC collections and their pause time while active."""

    def __init__(self):
        self.collections = [0, 0, 0]        # per generation
        self.paused_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.paused_s += perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "_GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)


def _per(calls: int, ops: int, rpcs: int) -> str:
    text = f"{calls / ops:,.1f}/op"
    return text + (f", {calls / rpcs:,.1f}/RPC" if rpcs else "")


def _print_python_calls(layers: dict, ops: int, rpcs: int) -> None:
    """Python-level calls of the profiled iteration, by source package.

    ``layers`` is ``benchmarks/e2e/layers.attribute`` of the profile, so
    each figure is the harness's ``<layer>.calls``; unlike the time
    columns they are the same on every machine and every run.
    """
    total = sum(row["calls"] for row in layers.values())
    counted = f"{ops:,} ops" + (f", {rpcs:,} RPCs" if rpcs else "")
    print(f"python calls      : {total:,} ({_per(total, ops, rpcs)}; "
          f"{counted})")
    for layer, row in layers.items():
        if row["calls"]:
            name = "other" if layer == "other" else f"repro.{layer}"
            print(f"  {name:<15} : {row['calls']:>11,} "
                  f"({_per(row['calls'], ops, rpcs)})")


def _print_top_calls(stats: dict, ops: int, rpcs: int, top: int = 10) -> None:
    """The ``top`` Python functions by number of calls, per op and RPC.

    The machine-independent ledger a call budget is written in: which
    function a call-count pin pays for, not which one is slow.
    """
    rows = sorted(((nc, func) for func, (_cc, nc, *_rest) in stats.items()
                   if func[0] != "~"), reverse=True)[:top]
    print(f"top {top} Python functions by calls:")
    for calls, (filename, line, name) in rows:
        at = filename.replace("\\", "/").rfind("/src/repro/")
        where = filename[at + 5:] if at >= 0 else Path(filename).name
        print(f"  {calls:>9,} ({_per(calls, ops, rpcs)})  "
              f"{where}:{line}({name})")


def profile_e2e(args) -> int:
    """Profile one iteration of a ``benchmarks/e2e`` workload.

    The benchmark's ``workloads.py`` and ``layers.py`` are imported as
    they are (nothing under ``benchmarks/e2e`` is edited or written);
    only ``workload.run`` — the harness's timed region — sits inside the
    profiler.  The time columns are inflated unevenly by the profiler
    (see the module docstring); the call counts are exact.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "benchmarks" / "e2e"))
    from layers import attribute
    from workloads import WORKLOADS

    if args.e2e not in WORKLOADS:
        print(f"unknown workload {args.e2e!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.e2e]()
    inputs = workload.inputs(args.seed)
    # The warm iteration runs unprofiled, so it is also where the cyclic
    # collector's share is measured: cProfile cannot see a collection (it
    # is not a call) and slows the code between two of them.
    ctx = workload.setup(args.seed)
    start = perf_counter()
    with _GcMeter() as collector:
        workload.run(ctx, inputs)
    warm_wall = perf_counter() - start
    ctx = workload.setup(args.seed)
    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    try:
        out = workload.run(ctx, inputs)
    finally:
        profiler.disable()
    wall = perf_counter() - start
    report = workload.report(ctx, inputs, out)

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(f"{args.e2e} seed {args.seed}: {report.ops:,} ops, "
          f"{report.failed} failed, {wall:.2f} s wall "
          f"(includes profiler overhead)")
    rpcs = int(report.counters.get("core.rpcs", 0))
    _print_python_calls(attribute(stats.stats), report.ops, rpcs)
    _print_top_calls(stats.stats, report.ops, rpcs)
    print(f"cyclic GC (unprofiled iteration, {warm_wall:.2f} s wall): "
          f"{sum(collector.collections)} collections (gen0/1/2 = "
          f"{'/'.join(map(str, collector.collections))}), "
          f"{collector.paused_s:.3f} s paused "
          f"({collector.paused_s / warm_wall if warm_wall > 0 else 0.0:.1%}"
          f" of the run)")
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw stats written to {args.dump}")
    return 1 if report.failed else 0


def profile_sweep(name: str, kwargs: dict, overlays: list, args) -> int:
    from repro.sweep import RunFailure, RunSpec, SweepEngine

    profile_dir = Path(args.profile_dir)
    profile_dir.mkdir(parents=True, exist_ok=True)
    short = name.rpartition(".")[2]
    specs = []
    for index, overlay in enumerate(overlays):
        merged = {**kwargs, **overlay}
        dump = profile_dir / f"{short}-run{index}.prof"
        specs.append(RunSpec(
            fn="repro.sweep.profiling.profiled_call",
            kwargs={"fn": f"{name}.run", "kwargs": merged,
                    "dump_path": str(dump)},
            label=f"profile:{short}[{index}]"))

    engine = SweepEngine(workers=args.workers)
    start = perf_counter()
    outcomes = engine.run(specs)
    wall = perf_counter() - start

    from repro.sweep.profiling import top_table
    failed = 0
    for index, outcome in enumerate(outcomes):
        print(f"\n=== run {index}: {specs[index].label} ===")
        if isinstance(outcome, RunFailure):
            failed += 1
            print(f"FAILED [{outcome.kind}]: {outcome.message}")
            continue
        summary = outcome.value
        print(f"kwargs={summary['kwargs']}  wall={summary['wall_s']:.2f}s  "
              f"calls={summary['total_calls']:,}")
        print(top_table(summary["dump"], sort=args.sort, top=args.top))
        print(f"raw stats: {summary['dump']}")
    print(f"\nsweep of {len(specs)} profiled runs finished in {wall:.2f}s "
          f"on {engine.workers} worker(s); profiles in {profile_dir}/")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", nargs="?",
                        help="experiment module, e.g. exp_micro or "
                             "repro.experiments.exp_micro")
    parser.add_argument("--e2e", default=None, metavar="WORKLOAD",
                        help="instead of an experiment, profile one "
                             "iteration of this benchmarks/e2e workload "
                             "(e.g. wordcount_zipf) and print the top "
                             "functions by self time")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed in --e2e mode "
                             "(default: %(default)s)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort column (default: %(default)s)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print (default: %(default)s)")
    parser.add_argument("--kwargs", default='{"fast": true}',
                        help="JSON kwargs for run() "
                             "(default: %(default)s)")
    parser.add_argument("--dump", default=None, metavar="PATH",
                        help="also save raw stats for pstats/snakeviz "
                             "(single-run mode)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="sharded mode: run the experiment through "
                             "N shard workers, dumping one cProfile per "
                             "shard into --profile-dir plus the barrier-"
                             "wait breakdown (run() must accept workers= "
                             "and profile_dir=, e.g. exp_fattree)")
    parser.add_argument("--sweep", default=None, metavar="JSON",
                        help="JSON list of kwargs overlays; profile the "
                             "whole grid through the sweep engine")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker count (default: "
                             "$REPRO_SWEEP_WORKERS or cpu count)")
    parser.add_argument("--profile-dir", default="prof_sweep",
                        metavar="DIR",
                        help="per-run .prof dump directory in sweep mode "
                             "(default: %(default)s)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a flight-recorder trace of the "
                             "profiled run: Perfetto JSON at PATH plus a "
                             "metrics JSONL next to it; with --shards the "
                             "workers' captures merge into one multi-lane "
                             "timeline (run() must accept trace=)")
    args = parser.parse_args(argv)
    if args.trace and args.sweep is not None:
        parser.error("--trace applies to single-run mode only "
                     "(sweep workers run in separate processes)")
    if (args.e2e is None) == (args.experiment is None):
        parser.error("give an experiment module or --e2e WORKLOAD")
    if args.e2e is not None:
        if args.shards is not None or args.sweep is not None or args.trace:
            parser.error("--e2e combines only with --seed, --sort, --top "
                         "and --dump")
        return profile_e2e(args)

    name = args.experiment
    if "." not in name:
        name = f"repro.experiments.{name}"
    try:
        module = importlib.import_module(name)
    except ImportError as exc:
        parser.error(f"cannot import {name}: {exc}")
    run = getattr(module, "run", None)
    if run is None:
        parser.error(f"{name} has no run() entry point")
    try:
        kwargs = json.loads(args.kwargs)
    except ValueError as exc:
        parser.error(f"--kwargs must be a JSON object: {exc}")

    if args.shards is not None:
        if args.sweep is not None:
            parser.error("--shards is exclusive with --sweep")
        return profile_sharded(name, run, kwargs, args)

    if args.sweep is not None:
        try:
            overlays = json.loads(args.sweep)
        except ValueError as exc:
            parser.error(f"--sweep must be a JSON list: {exc}")
        if not isinstance(overlays, list) or \
                not all(isinstance(o, dict) for o in overlays):
            parser.error("--sweep must be a JSON list of objects")
        return profile_sweep(name, kwargs, overlays, args)

    profile_single(name, run, kwargs, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
