"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; this
directory is outside tier-1 ``testpaths``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
from workloads import latency_summary, tail_percentile  # noqa: E402

SRC = "/somewhere/checkout/src/repro"


# ---------------------------------------------------------------------------
# layer attribution
# ---------------------------------------------------------------------------
def test_layer_of_maps_paths_to_packages():
    assert layers.layer_of(f"{SRC}/netsim/link.py") == "netsim"
    assert layers.layer_of(f"{SRC}/inc/client_agent.py") == "inc"
    assert layers.layer_of(f"{SRC}/experiments/exp_micro.py") == "other"
    assert layers.layer_of(f"{SRC}/__init__.py") == "other"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert layers.layer_of("~") == "other"


def test_attribute_charges_builtins_to_the_calling_layer():
    run = (f"{SRC}/netsim/simulator.py", 10, "run")
    submit = (f"{SRC}/inc/client_agent.py", 20, "submit")
    encode = (f"{SRC}/protocol/arith.py", 30, "encode")
    driver = ("/bench/workloads.py", 5, "run")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    # func -> (primitive calls, calls, self, cumulative, callers);
    # callers: func -> (calls, primitive calls, self, cumulative)
    stats = {
        driver: (1, 1, 0.10, 2.00, {}),
        run: (1, 1, 0.50, 1.90, {driver: (1, 1, 0.50, 1.90)}),
        submit: (4, 4, 0.40, 0.90, {run: (3, 3, 0.30, 0.70),
                                    submit: (1, 0, 0.10, 0.20)}),
        encode: (8, 8, 0.20, 0.20, {submit: (8, 8, 0.20, 0.20)}),
        heappop: (9, 9, 0.60, 0.60, {run: (6, 6, 0.45, 0.45),
                                     submit: (3, 3, 0.15, 0.15)}),
        disable: (1, 1, 0.05, 0.05, {}),
    }
    out = layers.attribute(stats)
    assert out["netsim"] == {"self_s": pytest.approx(0.95), "calls": 1,
                             "entries": 1}
    # the recursive submit->submit call is inside the layer: no entry
    assert out["inc"] == {"self_s": pytest.approx(0.55), "calls": 4,
                          "entries": 3}
    assert out["protocol"]["entries"] == 8
    assert out["other"]["self_s"] == pytest.approx(0.15)   # driver + disable
    total = sum(row[2] for row in stats.values())
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(total)
    assert set(out) == set(layers.LAYERS)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(1, 50), (16, 50), (99, 50), (100, 90),
                                    (201, 90), (999, 90), (1000, 99),
                                    (8000, 99)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, pct):
    assert tail_percentile(n) == pct
    assert pct == 50 or n * (100 - pct) / 100 >= 10


def test_latency_summary():
    summary = latency_summary([i * 1e-6 for i in range(1, 201)])
    assert summary["samples"] == 200 and summary["tail_pct"] == 90
    assert summary["p50_us"] == pytest.approx(100.5)
    assert summary["tail_us"] > summary["p50_us"]
    with pytest.raises(ValueError):
        latency_summary([])


# ---------------------------------------------------------------------------
# the manifest and what a run emits
# ---------------------------------------------------------------------------
def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.manifest()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert len(on_disk["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in on_disk["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(ROOT), capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_contract_line_names_every_metric(trace, section):
    proc = _run("--workload", "fabric_rackscale", "--seed", "3", "--smoke",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {m[0]: m[1] for m in getattr(metrics, section.upper())}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_set_passes_its_oracles_quickly(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    proc = _run("--smoke", "--seed", "1", "--out", str(out))
    took = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert took < 20, f"smoke set took {took:.1f}s"
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == set(metrics.WORKLOADS_WHY)
    for name, entry in doc["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        layer_sum = sum(entry["per_layer"][f"{layer}.self_frac"]["value"]
                        for layer in layers.LAYERS)
        assert layer_sum == pytest.approx(1.0, abs=0.02), name
    fabric = doc["workloads"]["fabric_rackscale"]["per_layer"]
    assert all(fabric[f"{layer}.calls"]["value"] == 0
               for layer in ("inc", "switchsim", "core", "protocol"))
    # comparing a set with itself: nothing regressed, nothing drifted
    proc = _run("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert "DIFFERS" not in proc.stdout and "regressed" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train_sync",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
