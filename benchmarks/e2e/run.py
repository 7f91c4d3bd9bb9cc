#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the NetRPC reproduction.

One run (the form ``BENCHMARK.json`` records and the driver calls)::

    python3 benchmarks/e2e/run.py --workload train_sync --seed 0 \
        --seconds 25 --trace 0

measures one workload for about ``--seconds`` seconds and prints, as the
last line of stdout, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Without ``--workload`` it runs every workload in both modes, prints every
metric by name with its unit, optionally writes the set to ``--out`` and
exits non-zero if any oracle fails.  ``run.py compare A.json B.json``
diffs two such sets; ``run.py manifest`` prints ``BENCHMARK.json``.

Protocol: passes of fresh children (``PYTHONHASHSEED=0``, one at a time)
until the time is used.  A pass is two bare cold-start probes plus one
child that times its cold start and then ``ITERS`` iterations of the
workload, each on a fresh deployment.  The traced child runs last; no
end-to-end metric ever comes from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True     # keep the harness's own directory clean

import metrics  # noqa: E402  (needs HERE on sys.path)
from calibration import kernel  # noqa: E402

ITERS = 3            # timed iterations per child
PROBES = 2           # bare cold-start probes per pass
TRACE_SHARE = 0.5    # of --seconds spent untraced before the traced child
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 90


class HarnessError(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, scale: float
           ) -> Dict[str, Any]:
    """Run one child to completion; returns its JSON plus the cold start
    (``setup_s`` bracketed by a kernel here and the child's first)."""
    # Bytecode is this program's build: cache it under .bench_build/ so a
    # cold start is a user's cold start, not a recompile of every module.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           str(seed), repr(scale), str(ITERS)]
    k_before = kernel()
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"{mode} child of {workload} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["start"] = {"setup_s": out["ready_at"] - spawned,
                    "import_s": out["import_s"], "k_before": k_before,
                    "k_after": out["ready_kernel_s"]}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> Dict[str, Any]:
    """One run of one workload -> the contract's result object."""
    budget = seconds * TRACE_SHARE if trace else seconds
    start = time.monotonic()
    samples: Dict[str, Any] = {"iters": [], "starts": [], "maxrss_kb": []}
    longest_pass = 0.0
    while True:
        pass_start = time.monotonic()
        if samples["iters"] and \
                pass_start - start + longest_pass > budget:
            break
        children = [_child("probe", workload, seed, scale)
                    for _ in range(PROBES)]
        timed = _child("timed", workload, seed, scale)
        samples["iters"] += timed["iters"]
        samples["maxrss_kb"].append(timed["maxrss_kb"])
        samples["starts"] += [child["start"] for child in children + [timed]]
        longest_pass = max(longest_pass, time.monotonic() - pass_start)

    iters = samples["iters"]
    reference = metrics.deterministic_view(iters[0])
    deterministic = all(metrics.deterministic_view(it) == reference
                        for it in iters)
    result: Dict[str, Any] = {
        "attempted": sum(it["ops"] for it in iters),
        "failed": sum(it["failed"] for it in iters),
        "fingerprint": iters[0]["fingerprint"],
        "wall_iqr_frac": metrics.iqr_frac(
            metrics.calibrated(iters, "wall_s")),
    }
    if trace:
        child = _child("traced", workload, seed, scale)
        traced, warm = child["traced"], child["iters"][0]
        deterministic = deterministic and all(
            metrics.deterministic_view(it) == reference
            for it in (traced, warm))
        result["metrics"] = metrics.per_layer(samples, traced, warm)
    else:
        result["metrics"] = metrics.end_to_end(samples)
    result["correct"] = deterministic and result["failed"] == 0
    return result


# ---------------------------------------------------------------------------
# the whole set: every workload, both modes
# ---------------------------------------------------------------------------
def _git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "meta": {"machine": platform.platform(),
                 "processor": platform.processor() or platform.machine(),
                 "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "git_rev": _git_rev(), "seed": seed, "seconds": seconds,
                 "scale": scale, "iters_per_child": ITERS,
                 "probes_per_pass": PROBES},
        "workloads": {}}
    for name in metrics.WORKLOADS_WHY:
        untraced = measure(name, seed, seconds, trace=False, scale=scale)
        traced = measure(name, seed, seconds, trace=True, scale=scale)
        entry = {"correct": untraced["correct"] and traced["correct"] and
                 untraced["fingerprint"] == traced["fingerprint"],
                 "attempted": untraced["attempted"] + traced["attempted"],
                 "failed": untraced["failed"] + traced["failed"],
                 "fingerprint": untraced["fingerprint"],
                 "wall_iqr_frac": untraced["wall_iqr_frac"],
                 "end_to_end": untraced["metrics"],
                 "per_layer": traced["metrics"]}
        doc["workloads"][name] = entry
        print(f"== {name}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']} "
              f"sim_fingerprint={entry['fingerprint'][:16]} "
              f"wall_iqr_frac={entry['wall_iqr_frac']:.3f}")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                print(f"  {metric:38s} {cell['value']:>18.6g} {cell['unit']}")
    return doc


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per (workload, metric) change of B against A.

    Returns 1 if an end-to-end metric regressed beyond its bound, more
    ops failed, or anything deterministic (counters, ``sim.*``, call
    counts, fingerprint) differs; a change that means to move a counter
    reads the diff instead of the exit code.  A host time is
    ``unresolved`` when the iterations behind it spread (IQR / median)
    wider than the bound."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa)["workloads"], json.load(fb)["workloads"]
    bad = 0
    for name, wa in a.items():
        wb = b.get(name)
        if wb is None:
            print(f"== {name}: missing from {path_b}")
            bad += 1
            continue
        print(f"== {name}")
        print(f"  ops failed/attempted  {wa['failed']}/{wa['attempted']} -> "
              f"{wb['failed']}/{wb['attempted']}")
        bad += wb["failed"] * wa["attempted"] > wa["failed"] * wb["attempted"]
        noise = max(wa["wall_iqr_frac"], wb["wall_iqr_frac"])
        for metric, _unit, better, bound in metrics.END_TO_END:
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            if metric in ("wall_s", "ops_per_sec") and noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "improved" if worse < -bound else "within-bound"
            print(f"  {metric:18s} {va:>14.6g} -> {vb:>14.6g}  "
                  f"{worse:+7.2%} worse (bound {bound:.0%})  {verdict}")
        drift = [m for m, cell in wa["per_layer"].items()
                 if m not in metrics.HOST_PER_LAYER
                 and cell["value"] != wb["per_layer"][m]["value"]]
        for metric in drift:
            print(f"  {metric}: {wa['per_layer'][metric]['value']} != "
                  f"{wb['per_layer'][metric]['value']}")
        if wa["fingerprint"] != wb["fingerprint"]:
            print("  sim_fingerprint DIFFERS")
            bad += 1
        elif not drift:
            print("  deterministic counters and sim_fingerprint: identical")
        bad += len(drift)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["manifest"]:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, one pass")
    parser.add_argument("--out", help="write the whole set as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    scale, seconds = (SMOKE_SCALE, 0.0) if args.smoke \
        else (1.0, args.seconds)
    try:
        if args.workload:
            result = measure(args.workload, args.seed, seconds,
                             bool(args.trace), scale)
            print(json.dumps({key: result[key] for key in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0 if result["correct"] else 1
        doc = run_set(args.seed, seconds, scale)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
