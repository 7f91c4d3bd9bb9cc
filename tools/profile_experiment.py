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
RPC: the ledger a call budget is written in — and, from one more
unprofiled iteration, the scheduled events by callback owner
(``Link._deliver``, ``Host._dispatch``, timers, ...), which says where a
change in ``netsim.events`` comes from.  Code compiled from a string
(a dataclass's generated ``__init__``/``__eq__``) has one row per owning
function in every table here, e.g.
``<string>:2(repro.protocol.packets.Packet.__init__)``, where stock
``pstats`` keeps one ``<string>:2(__init__)`` row with only the last
class's counts; the per-package lines put such code under ``other``, as
the harness does (the call-count pins count it for the class's package,
see ``tests/callcount.py``).  Then the cyclic garbage
collector over the unprofiled iteration — collections per generation and
seconds paused (``gc.callbacks``) — the cost of allocating container
objects per value, which no profile row shows.  Last comes one more
unprofiled iteration under a stack sampler on the stdlib ``ITIMER_PROF``
timer: every 0.5 ms of process CPU time (or every kernel tick, if that
is coarser) the sample goes to the Python function running (a C
builtin's time lands on its Python caller, as in the harness's layer
split), and the tool prints raw self-time shares per
``repro.<package>`` and for the top functions, with the sample count,
their spacing and the sampler's own cost.  These are the shares to rank by:
cProfile taxes every call, so it under-ranks code that does its work in
few calls (the per-slot ``RegisterFile.add_get_block`` read 9 % of
``train_sync`` under cProfile and 14.5 % raw) and over-ranks code made
of many small ones.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import signal
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time


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
    """Compute imbalance summary after a sharded run."""
    works = result.get("work_s") or []
    if not works:
        return
    avg = sum(works) / len(works)
    slowest = max(range(len(works)), key=works.__getitem__)
    print(f"imbalance         : max/mean work "
          f"{works[slowest] / avg if avg > 0 else 0.0:.2f}x "
          f"(slowest shard {slowest}, {works[slowest] * 1e3:.1f} ms)")


def profile_sharded(name: str, run, kwargs: dict, args) -> int:
    """Profile a sharded experiment: one cProfile per shard.

    Requires a ``run()`` that accepts ``profile_dir=`` (the
    ``exp_fattree`` scenario family).  Each shard's simulation work —
    and only that work; the coordinator's barrier arithmetic is outside
    the profiled region — lands in ``DIR/shard<N>.prof``, and the
    per-shard work shows how evenly the partition split the run.

    With ``--trace PATH`` the run also captures per-shard flight
    recorders and writes the merged multi-lane Perfetto timeline
    (``run()`` must accept ``trace=``; see DESIGN.md §4.11).
    """
    profile_dir = Path(args.profile_dir)
    profile_dir.mkdir(parents=True, exist_ok=True)
    run_kwargs = {**kwargs, "profile_dir": str(profile_dir)}
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
    print(f"transport         : "
          f"{result['messages_relayed']:,} boundary messages in "
          f"{result['frames_sent']:,} frames "
          f"({result['transport_bytes']:,} logical bytes, "
          f"{result['bytes_per_round']:,.0f} B/round, "
          f"{result['frames_sent'] / rounds if rounds else 0.0:.1f} "
          f"frames/round), "
          f"{result['horizon_rounds_skipped']:,} horizon rounds skipped")

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
    profiler = _Profile()
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


def _where(filename: str) -> str:
    """``package/module.py`` under ``src/repro/``, else the bare name."""
    at = filename.replace("\\", "/").rfind("/src/repro/")
    return filename[at + 5:] if at >= 0 else Path(filename).name


# Code compiled from a string — a dataclass's generated ``__init__`` and
# ``__eq__``, a namedtuple's ``__new__`` — shares the file ``<string>``
# and, mostly, line and name: (file, line, name), the key ``pstats`` and a
# naive sampler table use, merges every class's ``__init__`` into one row
# (pstats even keeps only the last code object's counts).  Such code is
# named here by the function that holds it, else by its caller.
_GENERATED = "<string>"


def _generated_owners() -> dict:
    """Code object -> ``module.Class.method`` for every live function
    compiled from a string."""
    owners = {}
    for obj in gc.get_objects():
        if type(obj) is types.FunctionType and \
                obj.__code__.co_filename == _GENERATED:
            owners[obj.__code__] = f"{obj.__module__}.{obj.__qualname__}"
    return owners


def _label(code, owners: dict, caller=None) -> tuple:
    """The (file, line, name) row key of ``code``; a C builtin's name is
    a string, keyed as cProfile keys it."""
    if isinstance(code, str):
        return ("~", 0, code)
    if code.co_filename != _GENERATED:
        return (code.co_filename, code.co_firstlineno, code.co_name)
    name = owners.get(code)
    if name is None:
        name = code.co_qualname
        if caller is not None:
            name += f" via {_where(caller.co_filename)}:{caller.co_name}"
    return (_GENERATED, code.co_firstlineno, name)


class _Profile(cProfile.Profile):
    """cProfile whose stats table keeps generated code apart.

    The stock snapshot keys each function by (file, line, name) and
    overwrites on a clash, so one ``<string>:2(__init__)`` row stood for
    whichever dataclass constructor came last.  This one keys generated
    code by :func:`_label` (its owner, else its most frequent caller) and
    sums any rows that still share a key.
    """

    def snapshot_stats(self) -> None:
        entries = self.getstats()
        owners = _generated_owners()
        callers_of: dict = {}          # ownerless generated code
        for entry in entries:
            if isinstance(entry.code, str):
                continue
            for sub in entry.calls or ():
                code = sub.code
                if not isinstance(code, str) and \
                        code.co_filename == _GENERATED and code not in owners:
                    callers_of.setdefault(code, Counter())[entry.code] += \
                        sub.callcount

        def label(code) -> tuple:
            callers = callers_of.get(code)
            return _label(code, owners,
                          callers.most_common(1)[0][0] if callers else None)

        stats: dict = {}
        caller_tables: dict = {}
        for entry in entries:
            func = label(entry.code)
            nc = entry.callcount
            cc = nc - entry.reccallcount
            row = stats.get(func)
            if row is None:
                row = (0, 0, 0.0, 0.0, {})
            stats[func] = (row[0] + cc, row[1] + nc,
                           row[2] + entry.inlinetime,
                           row[3] + entry.totaltime, row[4])
            caller_tables[id(entry.code)] = row[4]
        for entry in entries:
            func = label(entry.code)
            for sub in entry.calls or ():
                callers = caller_tables.get(id(sub.code))
                if callers is None:
                    continue
                nc = sub.callcount
                prev = callers.get(func, (0, 0, 0.0, 0.0))
                callers[func] = (prev[0] + nc,
                                 prev[1] + nc - sub.reccallcount,
                                 prev[2] + sub.inlinetime,
                                 prev[3] + sub.totaltime)
        self.stats = stats


class _RawSampler:
    """Raw self time by sampling: ``SIGPROF`` every ``interval_s`` of CPU.

    The handler runs between two bytecodes of the frame that was
    executing, so each sample names the Python function whose own code —
    or whose C builtin — held the CPU, with no per-call tax.  The
    handler times itself (``overhead_s``).
    """

    def __init__(self, interval_s: float = 0.0005):
        self.interval_s = interval_s
        # (code, caller code for generated code, else None) -> samples
        self.samples: Counter = Counter()
        self.overhead_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, _signum, frame) -> None:
        start = perf_counter()
        if frame is not None:
            code = frame.f_code
            caller = frame.f_back if code.co_filename == _GENERATED \
                else None
            self.samples[(code, caller and caller.f_code)] += 1
        self.overhead_s += perf_counter() - start

    def __enter__(self) -> "_RawSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s,
                         self.interval_s)
        self.cpu_s = -process_time()
        return self

    def __exit__(self, *_exc) -> None:
        self.cpu_s += process_time()
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def _print_raw_shares(sampler: _RawSampler, wall: float, layer_of,
                      top: int = 10) -> None:
    """Per-package and top-function shares of the sampled self time."""
    total = sum(sampler.samples.values())
    # The kernel may coarsen the interval to its tick: report the spacing
    # the samples actually had.
    spacing = sampler.cpu_s / total * 1e3 if total else 0.0
    print(f"raw self time (ITIMER_PROF sampler, unprofiled iteration, "
          f"{wall:.2f} s wall): {total:,} samples, one per {spacing:.1f} "
          f"ms CPU; sampler overhead "
          f"{sampler.overhead_s / wall if wall > 0 else 0.0:.2%}")
    if not total:
        return
    layers: Counter = Counter()
    functions: Counter = Counter()
    owners = _generated_owners()
    for (code, caller), count in sampler.samples.items():
        layers[layer_of(code.co_filename)] += count
        functions[_label(code, owners, caller)] += count
    for layer, count in layers.most_common():
        name = "other" if layer == "other" else f"repro.{layer}"
        print(f"  {name:<15} : {count / total:6.1%}")
    print(f"top {top} functions by raw self time:")
    for (filename, line, name), count in functions.most_common(top):
        print(f"  {count / total:6.1%}  {_where(filename)}:{line}({name})")


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
        print(f"  {calls:>9,} ({_per(calls, ops, rpcs)})  "
              f"{_where(filename)}:{line}({name})")


class _EventMix:
    """Counts scheduled events by callback owner while active.

    Wraps the four ``Simulator`` scheduling methods on the class (in this
    tool only), so every simulator built inside the block is counted:
    ``Link._deliver``, ``Host._dispatch``, a transport's timer, ...  A
    change in ``netsim.events`` is then attributable to the callbacks
    that gained or lost events.  Cancellable timers (``call_later``/
    ``call_at``) are listed apart, since a cancelled one still counts.
    """

    _METHODS = ("schedule", "schedule_at", "call_later", "call_at")

    def __init__(self):
        self.counts: Counter = Counter()

    def _wrap(self, original, timer: bool):
        counts = self.counts

        def counted(sim, when, callback, value=None):
            owner = getattr(callback, "__qualname__", None) \
                or type(callback).__qualname__
            counts[f"{owner} (timer)" if timer else owner] += 1
            return original(sim, when, callback, value)
        return counted

    def __enter__(self) -> "_EventMix":
        from repro.netsim.simulator import Simulator
        self._originals = {name: getattr(Simulator, name)
                           for name in self._METHODS}
        for name, original in self._originals.items():
            setattr(Simulator, name,
                    self._wrap(original, name.startswith("call_")))
        return self

    def __exit__(self, *_exc) -> None:
        from repro.netsim.simulator import Simulator
        for name, original in self._originals.items():
            setattr(Simulator, name, original)

    def show(self, ops: int, rpcs: int) -> None:
        total = sum(self.counts.values())
        print(f"scheduled events (unprofiled iteration): {total:,} "
              f"({_per(total, ops, rpcs)}), by callback owner:")
        for owner, count in self.counts.most_common():
            print(f"  {count:>9,} ({count / total:6.1%})  {owner}")


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
    from layers import attribute, layer_of
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
    profiler = _Profile()
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
    with _EventMix() as mix:
        workload.run(workload.setup(args.seed), inputs)
    mix.show(report.ops, rpcs)
    print(f"cyclic GC (unprofiled iteration, {warm_wall:.2f} s wall): "
          f"{sum(collector.collections)} collections (gen0/1/2 = "
          f"{'/'.join(map(str, collector.collections))}), "
          f"{collector.paused_s:.3f} s paused "
          f"({collector.paused_s / warm_wall if warm_wall > 0 else 0.0:.1%}"
          f" of the run)")
    if hasattr(signal, "setitimer"):
        ctx = workload.setup(args.seed)
        start = perf_counter()
        with _RawSampler() as sampler:
            workload.run(ctx, inputs)
        _print_raw_shares(sampler, perf_counter() - start, layer_of)
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
    parser.add_argument("--shards", action="store_true",
                        help="sharded mode: dump one cProfile per shard "
                             "into --profile-dir plus the per-shard work "
                             "(run() must accept profile_dir=, e.g. "
                             "exp_fattree)")
    parser.add_argument("--sweep", default=None, metavar="JSON",
                        help="JSON list of kwargs overlays; profile the "
                             "whole grid through the sweep engine")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker count (default: "
                             "$REPRO_SWEEP_WORKERS or cpu count)")
    parser.add_argument("--profile-dir", default="prof_sweep",
                        metavar="DIR",
                        help="per-run .prof dump directory in sweep "
                             "and --shards mode (default: %(default)s)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a flight-recorder trace of the "
                             "profiled run: Perfetto JSON at PATH plus a "
                             "metrics JSONL next to it; with --shards the "
                             "shards' captures merge into one multi-lane "
                             "timeline (run() must accept trace=)")
    args = parser.parse_args(argv)
    if args.trace and args.sweep is not None:
        parser.error("--trace applies to single-run mode only "
                     "(sweep workers run in separate processes)")
    if (args.e2e is None) == (args.experiment is None):
        parser.error("give an experiment module or --e2e WORKLOAD")
    if args.e2e is not None:
        if args.shards or args.sweep is not None or args.trace:
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

    if args.shards:
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
