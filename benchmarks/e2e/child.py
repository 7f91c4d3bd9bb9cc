"""One fresh interpreter of the harness: cold start, then iterations.

Usage (by run.py only): ``child.py MODE WORKLOAD SEED SCALE ITERS`` with
``MODE`` one of

``probe``   cold start only: import, build, report when ready, exit;
``timed``   cold start, then ITERS untraced timed iterations;
``traced``  one untraced warm iteration, then one under ``cProfile``.

Prints one JSON object.  ``ready_at`` is ``time.monotonic()`` (system-wide
on Linux) at the moment the workload is ready to submit; the parent
subtracts the stamp it took before spawning to get the cold-start time.
Every timed region is bracketed by the reference kernel (calibration.py).
"""

import sys
import time


def main(argv):
    mode, name, seed, scale, iters = (argv[0], argv[1], int(argv[2]),
                                      float(argv[3]), int(argv[4]))
    t0 = time.perf_counter()
    from workloads import WORKLOADS          # imports repro.*
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[name](scale)
    ctx = workload.setup(seed)
    out = {"ready_at": time.monotonic(), "import_s": import_s}
    from calibration import kernel
    out["ready_kernel_s"] = kernel()
    if mode != "probe":
        import gc
        inp = workload.inputs(seed)

        def iteration(ctx, profiler=None):
            gc.collect()
            k_before = kernel()
            start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            result = workload.run(ctx, inp)
            if profiler is not None:
                profiler.disable()
            wall = time.perf_counter() - start
            k_after = kernel()
            report = vars(workload.report(ctx, inp, result))
            report.update(wall_s=wall, k_before=k_before, k_after=k_after)
            return report

        out["iters"] = []
        for i in range(1 if mode == "traced" else iters):
            out["iters"].append(iteration(ctx if i == 0
                                          else workload.setup(seed)))
        if mode == "traced":
            import cProfile
            import pstats
            from layers import attribute
            profiler = cProfile.Profile()
            traced = iteration(workload.setup(seed), profiler)
            stats = pstats.Stats(profiler)
            traced["total_s"] = stats.total_tt
            traced["layers"] = attribute(stats.stats)
            out["traced"] = traced
    import json
    import resource
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
