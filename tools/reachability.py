"""Reachability census: which ``src/repro`` functions production code enters.

Usage (from the repo root; stdlib only, about 25 min on 2 vCPUs):

    python tools/reachability.py

It runs every run set, two at a time, then tabulates.  Every function
defined under ``src/repro`` lands in one of three classes:

``prod``       entered by at least one production run set: the five
               ``benchmarks/e2e`` workloads (imported as they are, 0.05
               scale, seed 0), every ``exp_*`` entry point at its fast
               setting, ``examples/*.py``, the ``benchmarks/bench_*``
               paper-figure scripts and the CI tool/script invocations
               that pass under tracing;
``test-only``  entered by the tier-1 tests and by no production run;
``none``       entered by nothing.

A function is keyed by ``(file, first line)``: the line of its first
decorator, else of its ``def`` — what its code object's
``co_firstlineno`` says.  Line counts are function spans, so a nested
function counts in its parent too.  A test-only or unreached function is
either *kept* — a test-only function by a rule of :data:`KEEP` (the
keep groups of DESIGN.md §4.12); anything as a ``__repr__`` debug aid,
an abstract method or a blind spot — or reported as ``unclassified``.
The exit status is 1 while anything is unclassified, and 1 without a
table when any command of any run set fails: a set that stopped partway
would under-count production and push functions towards test-only.

How the collector sees everything (each point was once a silent
under-count):

* ``sys.settrace`` + ``threading.settrace``, not ``setprofile``: the
  call-count pins call ``sys.setprofile(None)`` and cProfile replaces
  the profile hook, but neither touches the trace hook.  The global trace
  function returns None, so there are no per-line events.
* Every run's interpreter finds a generated ``sitecustomize.py``
  first on its ``PYTHONPATH``, so the hook is armed before any repro
  import — in subprocesses too, which inherit the environment.
* A fork-started ``multiprocessing`` child inherits the hook, but
  ``Process._bootstrap`` clears the finalizer registry and leaves through
  ``os._exit``, skipping ``atexit``: the dump is re-armed as a
  ``multiprocessing.util.Finalize`` through ``register_after_fork``.
* Blind spot: a process that dies through ``os._exit`` outside
  ``multiprocessing``'s exit path, or by a signal, dumps nothing
  (``sweep.diagnostics.crash_run`` is such a function).

``benchmarks/e2e/run.py`` pins its children's ``PYTHONPATH``, so the e2e
set imports ``benchmarks/e2e/workloads.py`` directly instead of going
through the harness (and CI's ``pytest benchmarks/e2e``, whose
``src/repro`` work all happens in those children, is left out).  CI's
``scripts/check_trace_overhead.py`` is left out too: its wall-time
gates cannot pass under ``sys.settrace``.  Dumps and logs go to
``--out`` (default ``.reachability/``); ``census.json`` there holds
every verdict.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

# Keep groups of DESIGN.md §4.12.  A test-only function is kept when
# ``"<pkg>/<module>.py:<qualname>"`` matches a pattern (fnmatch) of its
# group.  An unreached function is accepted only as a ``__repr__``, an
# abstract method or a known blind spot (:data:`BLIND_SPOTS`).
KEEP = {
    "a": ("fault model and chaos machinery", [
        "netsim/faults.py:*", "netsim/link.py:*Loss.*",
        "netsim/node.py:Host.pause", "netsim/node.py:Host._resume",
        "switchsim/switch.py:NetRPCSwitch.reboot",
        "switchsim/registers.py:RegisterFile.power_cycle",
        "switchsim/admission.py:AdmissionTable.clear",
        "switchsim/admission.py:AdmissionTable.__contains__",
        "switchsim/flowstate.py:FlowStateTable.clear_state",
        "switchsim/flowstate.py:FlowStateTable.restore",
        "switchsim/flowstate.py:FlowStateTable.next_slot",
        "control/controller.py:Controller.handle_switch_reboot",
        "inc/transport.py:ReliableFlow.flip_resync_bits",
        "experiments/common.py:run_chaos_*",
        "experiments/common.py:chaos_task_values",
        "experiments/common.py:reboot_schedule_factory*",
    ]),
    "b": ("input validation and error paths", [
        "core/messages.py:_decode_field_value",
        "core/messages.py:_parse_rest", "core/messages.py:_unknown_fields",
        "core/messages.py:Message.__getattr__",
        "core/status.py:RpcError.__init__",
        "netsim/events.py:EventFailed.__init__",
        "netsim/simulator.py:*global_wall_deadline",
        "protocol/rips.py:RetryMode.parse",
        "shard/boundary.py:RemoteNode.receive",
        "shard/boundary.py:ShardEgressLink._deliver*",
        "shard/codec.py:encode_frame", "shard/codec.py:decode_frame",
        "sweep/engine.py:SweepEngine._run_quarantined",
        "sweep/spec.py:RunFailure.*", "sweep/spec.py:RunResult.ok",
        "sweep/spec.py:RunSpec.describe", "sweep/spec.py:format_exception",
    ]),
    "c": ("the paper's programming model and mechanisms", [
        # fp/fmax kernels and their software twins
        "switchsim/registers.py:RegisterFile.f*",
        "switchsim/switch.py:NetRPCSwitch.ctrl_f*",
        "inc/incmap.py:SoftwareINCMap.f*",
        "protocol/fpcodec.py:OrderedMaxCodec.*",
        # stream modify
        "protocol/ops.py:apply_stream_op",
        "protocol/kvblock.py:KVBlock.modify",
        "inc/incmap.py:SoftwareINCMap.modify",
        # CntFwd on the server (software-only apps)
        "inc/incmap.py:SoftwareINCMap.count_forward",
        "inc/server_agent.py:ServerAgent._software_count",
        # plain (non-INC) calls and the message marshalling they use
        "inc/client_agent.py:ClientAgent._send_plain",
        "inc/server_agent.py:_payload_size",
        "core/stubs.py:ServerStub.bind", "core/stubs.py:ServerStub._on_call",
        "core/service.py:RegisteredService.binding_for_gaid",
        "core/messages.py:_encode_iedt", "core/messages.py:_decode_iedt",
        "core/messages.py:Message.__eq__", "core/wire.py:*",
        # gRPC-style stubs
        "core/stubs.py:ClientStub.__getattr__*",
        "core/stubs.py:ServerStub.bind_round",
        "inc/server_agent.py:ServerAgent.set_round_handler",
        "core/stubs.py:ServerStub.inc_map_snapshot",
        "inc/server_agent.py:ServerAgent._register_part",
        "inc/incmap.py:SoftwareINCMap.snapshot",
        # the §5.2.2 two-level timeout (nothing in production arms it) ...
        "control/timeout.py:TimeoutMonitor.*",
        "control/controller.py:Controller.poll_switch_timestamps",
        "control/controller.py:Controller.registered_apps",
        "control/controller.py:Controller.lookup",
        "control/controller.py:Controller.server_agent_for",
        "control/controller.py:Registration.gaids",
        "switchsim/switch.py:NetRPCSwitch.poll_timestamps",
        "switchsim/admission.py:AdmissionTable.timestamps",
        "inc/server_agent.py:ServerAgent.retrieve_app",
        "inc/server_agent.py:ServerAgent.expire_app",
        "inc/incmap.py:SoftwareINCMap.drain",
        "inc/memory.py:MemoryManager.mapped_logicals",
        # ... and deregistration, which returns the app's memory
        "control/controller.py:Controller.deregister",
        "control/controller.py:MemoryPool.release",
        "switchsim/switch.py:NetRPCSwitch.remove_app",
        "switchsim/admission.py:AdmissionTable.remove",
        # one host in several Paxos roles
        "apps/paxos.py:PaxosCluster._chain_broadcast.<locals>.chained",
    ]),
    "d": ("reference implementations tests compare against", [
        "protocol/arith.py:*", "protocol/fpcodec.py:FPCodec.*",
        "protocol/quantize.py:Int8BlockCodec.error_bound",
        "switchsim/registers.py:RegisterFile.read",
        "switchsim/registers.py:RegisterFile.occupied_addrs",
        "sweep/spec.py:RunSpec.call",
    ]),
    "e": ("test support worker processes must import", [
        "sweep/diagnostics.py:*",
    ]),
    "f": ("what the one-network-model item builds on", [
        "netsim/topology.py:fat_tree", "netsim/topology.py:multi_rack",
        "netsim/topology.py:_build_structure",
        "shard/placement.py:*",
        "control/controller.py:Controller.managed_switch_names",
    ]),
}

# Unreached by design: the collector cannot see a process that dies
# through ``os._exit``.
BLIND_SPOTS = ("sweep/diagnostics.py:crash_run",)

PRODUCTION = ("e2e", "experiments", "examples", "figures", "ci")
LONGEST_FIRST = ("figures", "tests", "ci", "experiments", "e2e", "examples")


# ---------------------------------------------------------------------------
# collector (runs inside every traced interpreter, armed by sitecustomize)
# ---------------------------------------------------------------------------
_SEEN = set()
_STATE = {}


class _Armed:
    """Anchor for ``register_after_fork`` (it holds a weak reference)."""


_ANCHOR = _Armed()


def _trace(frame, event, arg, _add=_SEEN.add):
    # ``_add`` is bound early: module globals are gone at shutdown.
    _add(frame.f_code)


def _dump():
    """Write the code objects under the census root seen so far."""
    root = _STATE.get("root")
    out = _STATE.get("dir")
    if not root or not out:
        return
    rows = sorted({(os.path.realpath(code.co_filename), code.co_firstlineno,
                    getattr(code, "co_qualname", code.co_name))
                   for code in list(_SEEN)
                   if os.path.realpath(code.co_filename).startswith(root)})
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{os.getpid()}-{_STATE['token']}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(rows, fh)
    os.replace(path + ".tmp", path)


def _rearm(_anchor=None):
    from multiprocessing import util
    _STATE["token"] = os.urandom(4).hex()
    util.Finalize(None, _dump, exitpriority=100)


def arm():
    """Install the hook and the dump; reads ``REPRO_REACH_DIR`` (dump
    directory) and ``REPRO_REACH_ROOT`` (only files under it count)."""
    import atexit
    import threading
    from multiprocessing import util
    _STATE["dir"] = os.environ.get("REPRO_REACH_DIR")
    _STATE["root"] = os.path.realpath(os.environ.get("REPRO_REACH_ROOT",
                                                     SRC)) + os.sep
    _STATE["token"] = os.urandom(4).hex()
    sys.settrace(_trace)
    threading.settrace(_trace)
    atexit.register(_dump)
    util.register_after_fork(_ANCHOR, _rearm)


SITECUSTOMIZE = """\
# Generated by tools/reachability.py: arms its census collector.
import importlib.util as _util
import sys as _sys
_spec = _util.spec_from_file_location("_repro_reachability", {path!r})
_mod = _util.module_from_spec(_spec)
_sys.modules["_repro_reachability"] = _mod
_spec.loader.exec_module(_mod)
_mod.arm()
"""


def write_sitecustomize(directory):
    """Write the ``sitecustomize.py`` that arms the collector into
    ``directory``; put that directory first on a child's PYTHONPATH."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(path=os.path.abspath(__file__)))


def traced_env(site_dir, dump_dir, root=SRC, extra_path=()):
    """Environment for a child interpreter whose calls are recorded."""
    path = [site_dir, *extra_path, os.path.join(ROOT, "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                REPRO_REACH_DIR=dump_dir, REPRO_REACH_ROOT=root)


def load_dumps(dump_dir):
    """``{(file, first line): qualname}`` over every dump in a directory."""
    seen = {}
    if not os.path.isdir(dump_dir):
        return seen
    for name in sorted(os.listdir(dump_dir)):
        if name.endswith(".json"):
            with open(os.path.join(dump_dir, name)) as fh:
                for filename, line, qualname in json.load(fh):
                    seen[(filename, line)] = qualname
    return seen


# ---------------------------------------------------------------------------
# run sets
# ---------------------------------------------------------------------------
E2E = """\
import sys
sys.path.insert(0, {e2e!r})
from workloads import WORKLOADS
for name, cls in WORKLOADS.items():
    workload = cls(0.05)
    ctx = workload.setup(0)
    inp = workload.inputs(0)
    report = workload.report(ctx, inp, workload.run(ctx, inp))
    print(name, report.ops, "ops,", report.failed, "failed")
"""

EXPERIMENTS = """\
import importlib, inspect, pkgutil
import repro.experiments
for info in sorted(pkgutil.iter_modules(repro.experiments.__path__)):
    if not info.name.startswith("exp_"):
        continue
    module = importlib.import_module("repro.experiments." + info.name)
    for name, fn in sorted(vars(module).items()):
        if not (name == "run" or name.startswith("run_")) or \\
                getattr(fn, "__module__", None) != module.__name__:
            continue
        params = inspect.signature(fn).parameters
        if any(p.default is p.empty for p in params.values()):
            continue
        print(info.name, name, flush=True)
        fn(**({"fast": True} if "fast" in params else {}))
"""

TRACED_MICRO = ("from repro.experiments import exp_micro; "
                "from repro.obs import run_traced; "
                "run_traced(exp_micro.run, 'trace.json', fast=True)")

TRACED_FATTREE = (
    "from repro.experiments import exp_fattree; "
    "r = exp_fattree.run('rack4', fast=True, workers=2, "
    "trace='shard_trace.json'); "
    "assert r['results_identical_to_unsharded'] is True")


def command_sets():
    """``{set name: [argv, ...]}``; a set's commands run in order, in one
    working directory."""
    py = sys.executable
    tool = os.path.join(ROOT, "tools")
    script = os.path.join(ROOT, "scripts")
    examples = sorted(f for f in os.listdir(os.path.join(ROOT, "examples"))
                      if f.endswith(".py"))
    profile = [py, os.path.join(tool, "profile_experiment.py")]
    report = [py, os.path.join(tool, "trace_report.py")]
    return {
        "e2e": [[py, "-c", E2E.format(
            e2e=os.path.join(ROOT, "benchmarks", "e2e"))]],
        "experiments": [[py, "-c", EXPERIMENTS]],
        "examples": [[py, os.path.join(ROOT, "examples", f)]
                     for f in examples],
        "figures": [[py, "-m", "pytest", os.path.join(ROOT, "benchmarks"),
                     "--ignore", os.path.join(ROOT, "benchmarks", "e2e"),
                     "--benchmark-disable", "-q", "-p", "no:cacheprovider",
                     "--rootdir", ROOT]],
        "ci": [
            *[[*profile, "--e2e", w, "--top", "5"]
              for w in ("train_sync", "paxos_small", "wordcount_zipf",
                        "fabric_rackscale")],
            [*profile, "exp_micro", "--sweep", "[{}]", "--workers", "1",
             "--top", "3"],
            # the profiler's other two modes: single run and sharded
            [*profile, "exp_micro", "--top", "3"],
            [*profile, "exp_fattree", "--shards", "2", "--top", "3",
             "--profile-dir", "prof_shards"],
            [py, os.path.join(script, "check_shard_acceptance.py"),
             "--fast"],
            [py, "-c", TRACED_MICRO],
            [*report, "validate", "trace.json", "--metrics",
             "trace.metrics.jsonl"],
            [*report, "summary", "trace.json"],
            [py, "-c", TRACED_FATTREE],
            [*report, "validate", "shard_trace.json", "--metrics",
             "shard_trace.metrics.jsonl"],
            [*report, "shards", "shard_trace.json"],
        ],
        "tests": [[py, "-m", "pytest", os.path.join(ROOT, "tests"), "-q",
                   "-p", "no:cacheprovider", "--rootdir", ROOT]],
    }


def run_sets(out):
    """Run every run set, two at a time; returns ``{name: [exit
    codes]}``."""
    import shutil
    import subprocess
    import threading
    from concurrent.futures import ThreadPoolExecutor

    sets = command_sets()
    site = os.path.join(out, "site")
    write_sitecustomize(site)
    lock = threading.Lock()

    def run(name):
        dumps = os.path.join(out, "dumps", name)
        work = os.path.join(out, "work", name)
        for path in (dumps, work):
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
        env = traced_env(site, dumps)
        env.setdefault("REPRO_SHARD_WORKERS", "2")
        codes = []
        with open(os.path.join(out, f"{name}.log"), "w") as log:
            for argv in sets[name]:
                log.write(f"$ {' '.join(argv)}\n")
                log.flush()
                code = subprocess.run(argv, cwd=work, env=env, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
                codes.append(code)
                with lock:
                    print(f"[{name}] exit {code}: {' '.join(argv)[:100]}",
                          flush=True)
        return codes

    order = sorted(sets, key=LONGEST_FIRST.index)
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(order, pool.map(run, order)))


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------
def index_functions(root=SRC):
    """Every ``def`` under ``root``: ``[(file, first line, qualname,
    span lines, abstract)]``."""
    import ast

    found = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append((path, first, qualname,
                              child.end_lineno - first + 1,
                              _is_abstract(child)))
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.realpath(os.path.join(dirpath, filename))
                with open(path) as fh:
                    visit(ast.parse(fh.read(), path), "", path)
    return found


def _is_abstract(fn):
    import ast
    decorators = {getattr(d, "id", getattr(d, "attr", None))
                  for d in fn.decorator_list}
    if "abstractmethod" in decorators:
        return True
    body = [s for s in fn.body
            if not (isinstance(s, ast.Expr) and
                    isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise) and
            "NotImplementedError" in ast.unparse(body[0]))


def verdict(name, klass, abstract):
    """Why a test-only or unreached function stays, or None."""
    from fnmatch import fnmatchcase
    if name.endswith(".__repr__"):
        return "repr"
    if abstract:
        return "abstract"
    if klass == "none":
        return "blind" if name in BLIND_SPOTS else None
    for group, (_title, patterns) in KEEP.items():
        if any(fnmatchcase(name, p) for p in patterns):
            return group
    return None


def tabulate(out):
    """Classify every function from the dumps in ``out``; print the
    per-package table and every test-only or unreached function."""
    prod = set()
    for name in PRODUCTION:
        prod.update(load_dumps(os.path.join(out, "dumps", name)))
    tests = set(load_dumps(os.path.join(out, "dumps", "tests")))
    root = os.path.realpath(SRC) + os.sep
    table = {}
    rows = []
    for path, line, qualname, span, abstract in index_functions():
        rel = path[len(root):]
        package = rel.split(os.sep)[0] if os.sep in rel else "(top)"
        key = (path, line)
        klass = ("prod" if key in prod else
                 "test-only" if key in tests else "none")
        counts = table.setdefault(package, {"prod": 0, "test-only": 0,
                                            "none": 0})
        counts[klass] += span
        if klass != "prod":
            name = f"{rel}:{qualname}"
            rows.append({"function": name, "line": line, "lines": span,
                         "class": klass,
                         "keep": verdict(name, klass, abstract)})
    print(f"{'package':<12} {'prod':>6} {'test-only':>10} {'none':>6}")
    for package in sorted(table):
        c = table[package]
        print(f"{package:<12} {c['prod']:>6} {c['test-only']:>10} "
              f"{c['none']:>6}")
    total = {k: sum(c[k] for c in table.values())
             for k in ("prod", "test-only", "none")}
    print(f"{'total':<12} {total['prod']:>6} {total['test-only']:>10} "
          f"{total['none']:>6}")
    print()
    for row in rows:
        print(f"{row['class']:<9} {row['keep'] or 'UNCLASSIFIED':<12} "
              f"{row['lines']:>4}  {row['function']}")
    unclassified = sum(1 for row in rows if row["keep"] is None)
    print(f"\n{len(rows)} functions not reached by production; "
          f"{unclassified} unclassified")
    with open(os.path.join(out, "census.json"), "w") as fh:
        json.dump({"packages": table, "functions": rows}, fh, indent=1)
    return unclassified


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, ".reachability"),
                        help="dump/log directory (default: %(default)s)")
    out = os.path.abspath(parser.parse_args(argv).out)
    failed = {name: exits for name, exits in run_sets(out).items()
              if any(exits)}
    if failed:
        for name, exits in failed.items():
            print(f"FAIL: run set {name} exits {exits} (see {out}/{name}.log)")
        print("no verdicts: a failed run under-counts production")
        return 1
    return 1 if tabulate(out) else 0


if __name__ == "__main__":
    raise SystemExit(main())
