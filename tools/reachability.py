"""Reachability census: which ``src/repro`` functions production code enters.

Usage (from the repo root; stdlib only, about 9 min on 2 vCPUs):

    python tools/reachability.py
    python tools/reachability.py --state     # static, a few seconds

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

``--state`` is the same census for state, from the source alone (stdlib
``ast``, no run sets).  Its items are every attribute stored under
``src/repro`` (``attr``: ``self.x = ...``, a ``__slots__`` name, or a
store on another object whose name no class owns), every dataclass
field (``field``) and every function parameter (``param``).  An
attribute or field is ``prod`` when ``src/``, ``benchmarks/``,
``examples/``, ``tools/`` or ``scripts/`` reads it, ``test-only`` when
only ``tests/`` does, ``unread`` otherwise.  A read is an attribute load
(``self.x`` counts for the class's own hierarchy, any other ``obj.x``
for every class with an ``x``) or the name as a string (``getattr``, a
dict key) — except a string that is stored under (``d["x"] = ...``,
``setattr``) or declared (``__slots__``, ``__all__``).  A parameter is
``prod`` when its function's body uses the name.  A non-``prod`` item
is kept by a :data:`KEEP` rule (groups g-i), or automatically as a
method's ``self``, an ``_``-prefixed or dunder-method parameter, an
``override`` (an ancestor's definition reads it) or an ``abstract``
method's parameter some implementation reads; anything else is
``UNCLASSIFIED`` and the exit status is 1.
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
        "netsim/link.py:LinkStats.add",
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
        "shard/spec.py:rack_chaos_schedule",
    ]),
    "b": ("input validation and error paths", [
        "core/messages.py:_decode_field_value",
        "core/messages.py:_parse_rest", "core/messages.py:_unknown_fields",
        "core/messages.py:Message.__getattr__",
        "core/status.py:RpcError.__init__",
        "netsim/events.py:EventFailed.__init__",
        "netsim/simulator.py:set_global_wall_deadline",
        "shard/boundary.py:RemoteNode.receive",
        "shard/boundary.py:ShardEgressLink._deliver*",
        # A loss model set on a cut link (refused): a failure no
        # production run provokes.
        "shard/boundary.py:ShardEgressLink.loss",
        "sweep/engine.py:SweepEngine._run_quarantined",
        "sweep/spec.py:RunFailure.*", "sweep/spec.py:RunResult.ok",
        "sweep/spec.py:RunSpec.describe", "sweep/spec.py:format_exception",
    ]),
    "c": ("the paper's programming model and mechanisms", [
        # agg=fmax, whose codec holds its arithmetic, and a key's
        # software total read with its register folded in (keyed
        # overflow replies, inc_map_snapshot)
        "protocol/fpcodec.py:OrderedMaxCodec.*",
        "inc/incmap.py:SoftwareINCMap.get_with",
        # stream modify
        "protocol/ops.py:apply_stream_op",
        "protocol/kvblock.py:KVBlock.modify",
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
        "inc/incmap.py:SoftwareINCMap.snapshot",
        "inc/incmap.py:SoftwareINCMap.get",
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
        "inc/incmap.py:SoftwareINCMap.combine_block",
        "protocol/quantize.py:Int8BlockCodec.error_bound",
        "switchsim/registers.py:RegisterFile.read",
        "switchsim/registers.py:RegisterFile.occupied_addrs",
        "sweep/spec.py:RunSpec.call",
    ]),
    "e": ("test support worker processes must import", [
        "sweep/diagnostics.py:*",
    ]),
    # State keep groups (``--state``): items are ``"<kind> <pkg>/<module>
    # .py:<owner>.<name>"``, or ``...:<qualname>(<param>)`` for a
    # parameter, so no function pattern above matches one.
    "g": ("public API state: the status of a failed call and the "
          "server-side stub an app hands its user", [
        "attr core/status.py:RpcError.*",
        "attr apps/*.py:*.server_stub",
    ]),
    "h": ("interface parameters a caller or base signature fixes", [
        "param netsim/link.py:*.drops(*)",
        "param netsim/faults.py:*.apply(packet)",
        "param inc/cache.py:*.wants(*)", "param inc/cache.py:*.evictions(*)",
        "param inc/cache.py:*.window_update(*)",
        "param inc/congestion.py:*Controller.on_*(now)",
        "param inc/transport.py:ReliableFlow._on_timer(when)",
        "param baselines/aggregation.py:*._dst_for(chunk)",
        "param baselines/aggregation.py:*._may_send(chunk)",
        "param shard/boundary.py:RemoteNode.receive(packet)",
        # the register file's kernel signatures, which protocol.apply
        # calls on the software map as well
        "param inc/incmap.py:SoftwareINCMap.*(base)",
        "param inc/incmap.py:SoftwareINCMap.combine_block(add_bits)",
    ]),
    "i": ("outputs of public result records that tests assert on", [
        "field experiments/common.py:ChaosRunResult.failure",
        "field experiments/common.py:ChaosRunResult.final_time_s",
        "field experiments/common.py:ChaosRunResult.switch_stats",
        "field experiments/common.py:ChaosRunResult.server_stats",
        "field experiments/common.py:ChaosRunResult.audit_trail",
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
    "r = exp_fattree.run('rack4', fast=True, trace='shard_trace.json'); "
    "assert r['results_identical_to_unsharded'] is True")


def command_sets():
    """``{set name: [argv, ...]}``; a set's commands run in order, in one
    working directory."""
    py = sys.executable
    tool = os.path.join(ROOT, "tools")
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
            [*profile, "exp_fattree", "--shards", "--top", "3",
             "--profile-dir", "prof_shards"],
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
def _py_files(root):
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    import ast
    with open(path) as fh:
        return ast.parse(fh.read(), path)


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

    for path in _py_files(root):
        path = os.path.realpath(path)
        visit(_parse(path), "", path)
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
    if name.endswith(".__repr__"):
        return "repr"
    if abstract:
        return "abstract"
    if klass == "none":
        return "blind" if name in BLIND_SPOTS else None
    return keep_group(name)


def keep_group(name):
    """The :data:`KEEP` group with a pattern matching ``name``, or None."""
    from fnmatch import fnmatchcase
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


# ---------------------------------------------------------------------------
# state census (--state): static, no run sets
# ---------------------------------------------------------------------------
STATE_PROD = ("src", "benchmarks", "examples", "tools", "scripts")
STATE_TESTS = ("tests",)


def _last_name(node):
    """``x`` of ``x``, ``a.x`` or ``x(...)``."""
    import ast
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _stored_attrs(target):
    """The ``ast.Attribute`` nodes a store target writes."""
    import ast
    if isinstance(target, ast.Attribute):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored_attrs(element)
    elif isinstance(target, ast.Starred):
        yield from _stored_attrs(target.value)


class _Model:
    """What the tree under ``src`` defines: its classes, the state they
    store and every function's parameters."""

    def __init__(self, src):
        self.src = os.path.realpath(src)
        self.classes = {}        # (rel, qualname) -> ast.ClassDef
        self.by_name = {}        # class name -> [(rel, qualname)]
        self.state = {}          # (kind, rel, "Owner.attr") -> class key
        self.foreign = {}        # attr -> (rel, "expr.attr") of the first
        self.params = []         # (rel, qualname, class key or None,
        #                            function name, param, read, method's
        #                            first parameter)
        self.abstract = set()    # (class key, method name)
        trees = [(os.path.relpath(os.path.realpath(path), self.src),
                  _parse(path)) for path in _py_files(src)]
        for rel, tree in trees:
            self._index(tree, rel, "")
        for rel, tree in trees:
            self._collect(tree, rel, "", None)
        # a store on anything but ``self`` belongs to every class that
        # stores or declares that name; an item of its own otherwise
        owned = {key[2].rsplit(".", 1)[1] for key in self.state}
        for attr, (rel, name) in self.foreign.items():
            if attr not in owned:
                self.state[("attr", rel, name)] = None

    def _index(self, node, rel, prefix):
        import ast
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                key = (rel, prefix + child.name)
                self.classes[key] = child
                self.by_name.setdefault(child.name, []).append(key)
                self._index(child, rel, key[1] + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index(child, rel, prefix + child.name + ".<locals>.")
            else:
                self._index(child, rel, prefix)

    def bases(self, key):
        return [base for node in self.classes[key].bases
                for base in self.by_name.get(_last_name(node), ())]

    def ancestors(self, key):
        """The class and every ancestor of it under ``src``."""
        seen, todo = set(), [key]
        while todo:
            k = todo.pop()
            if k not in seen:
                seen.add(k)
                todo.extend(self.bases(k))
        return seen

    def family(self, key):
        """The class, its ancestors and its descendants."""
        return self.ancestors(key) | {k for k in self.classes
                                      if key in self.ancestors(k)}

    def _collect(self, node, rel, prefix, klass):
        import ast
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                key = (rel, prefix + child.name)
                dataclass = any(_last_name(d) == "dataclass"
                                for d in child.decorator_list)
                for stmt in child.body:
                    if (dataclass and isinstance(stmt, ast.AnnAssign) and
                            isinstance(stmt.target, ast.Name) and
                            "ClassVar" not in ast.unparse(stmt.annotation)):
                        self.state[("field", rel,
                                    f"{key[1]}.{stmt.target.id}")] = key
                    elif isinstance(stmt, ast.Assign) and any(
                            getattr(t, "id", None) == "__slots__"
                            for t in stmt.targets):
                        self._slots(stmt.value, rel, key)
                self._collect(child, rel, key[1] + ".", key)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                method = klass is not None and prefix == klass[1] + "."
                self._function(child, rel, qualname,
                               klass if method else None)
                self._collect(child, rel, qualname + ".<locals>.", klass)
            else:
                if isinstance(child, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign, ast.For, ast.AsyncFor)):
                    targets = getattr(child, "targets", None) or \
                        [child.target]
                    for target in targets:
                        for attr in _stored_attrs(target):
                            self._store(attr, rel, klass)
                self._collect(child, rel, prefix, klass)

    def _slots(self, value, rel, key):
        """A ``__slots__`` name is the class's own, stored or not."""
        import ast
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    node.value.isidentifier() and \
                    not node.value.startswith("__"):
                self.state.setdefault(
                    ("attr", rel, f"{key[1]}.{node.value}"), key)

    def _store(self, attr, rel, klass):
        import ast
        if (klass is not None and isinstance(attr.value, ast.Name) and
                attr.value.id == "self"):
            name = attr.attr
            if not any(("field", k[0], f"{k[1]}.{name}") in self.state
                       for k in self.ancestors(klass)):
                self.state.setdefault(
                    ("attr", klass[0], f"{klass[1]}.{name}"), klass)
        else:
            self.foreign.setdefault(
                attr.attr, (rel, f"{ast.unparse(attr.value)}.{attr.attr}"))

    def _function(self, fn, rel, qualname, klass):
        import ast
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        used = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        static = any(_last_name(d) == "staticmethod"
                     for d in fn.decorator_list)
        if klass is not None and _is_abstract(fn):
            self.abstract.add((klass, fn.name))
        for i, param in enumerate(params):
            self.params.append((rel, qualname, klass, fn.name, param.arg,
                                param.arg in used,
                                klass is not None and i == 0 and not static))

    def definers(self, klass, method):
        """``(ancestors, descendants)`` of ``klass`` that define
        ``method``, neither including ``klass``."""
        import ast

        def defines(k):
            return any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and n.name == method for n in self.classes[k].body)

        up = self.ancestors(klass) - {klass}
        return ({k for k in up if defines(k)},
                {k for k in self.classes
                 if k != klass and klass in self.ancestors(k) and defines(k)})


class _Reads:
    """Every attribute name a tree reads: ``names`` through a load on
    anything but ``self`` or as a string, ``own`` as ``(class key,
    name)`` through ``self`` inside a class the model knows."""

    def __init__(self, model):
        self.model = model
        self.names = set()
        self.own = set()

    def scan(self, path):
        import ast
        tree = _parse(path)
        real = os.path.realpath(path)
        rel = os.path.relpath(real, self.model.src) \
            if real.startswith(self.model.src + os.sep) else None
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and \
                    not isinstance(node.ctx, ast.Load):
                skip.add(id(node.slice))        # d["x"] = ... stores
            elif isinstance(node, ast.Call) and \
                    _last_name(node.func) in ("setattr", "__setattr__") \
                    and len(node.args) > 1:
                skip.add(id(node.args[1]))      # setattr(obj, "x", v)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("__slots__", "__all__")
                    for t in node.targets):
                skip.update(id(n) for n in ast.walk(node.value))
        self._walk(tree, rel, "", None, skip)

    def _walk(self, node, rel, prefix, klass, skip):
        import ast
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._walk(child, rel, prefix + child.name + ".",
                           self._class_key(child, rel, prefix), skip)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(child, rel, prefix + child.name + ".<locals>.",
                           klass, skip)
                continue
            if isinstance(child, ast.Attribute) and \
                    not isinstance(child.ctx, ast.Store):
                if isinstance(child.value, ast.Name) and \
                        child.value.id == "self" and klass is not False:
                    if klass is not None:
                        self.own.add((klass, child.attr))
                else:
                    self.names.add(child.attr)
            elif (isinstance(child, ast.Constant) and
                  isinstance(child.value, str) and
                  child.value.isidentifier() and id(child) not in skip):
                self.names.add(child.value)
            self._walk(child, rel, prefix, klass, skip)

    def _class_key(self, node, rel, prefix):
        """The model's key for a class: itself under ``src``, else the
        first base the model knows (a test subclass of a src class), else
        False (a class of the reader's own, whose ``self`` reads are its
        own business)."""
        if rel is not None:
            return (rel, prefix + node.name)
        for base in node.bases:
            for key in self.model.by_name.get(_last_name(base), ()):
                return key
        return False


def state_census(src=SRC, prod=None, tests=None):
    """Classify every stored attribute, dataclass field and parameter
    under ``src``: ``[{"item", "class", "keep"}]``, with ``class`` one
    of ``prod``, ``test-only``, ``unread``."""
    prod = [os.path.join(ROOT, d) for d in STATE_PROD] if prod is None \
        else prod
    tests = [os.path.join(ROOT, d) for d in STATE_TESTS] if tests is None \
        else tests
    model = _Model(src)
    reads = {}
    for side, roots in (("prod", prod), ("test", tests)):
        reads[side] = _Reads(model)
        for root in roots:
            for path in _py_files(root):
                reads[side].scan(path)
    families = {}

    def read_by(side, klass, attr):
        r = reads[side]
        if attr in r.names:
            return True
        if klass is None:        # stored from outside: anyone's ``self``
            return any(a == attr for _k, a in r.own)
        if klass not in families:
            families[klass] = model.family(klass)
        return any((k, attr) in r.own for k in families[klass])

    rows = []
    for (kind, rel, name), klass in sorted(model.state.items()):
        attr = name.rsplit(".", 1)[1]
        item = f"{kind} {rel}:{name}"
        if read_by("prod", klass, attr):
            rows.append({"item": item, "class": "prod", "keep": None})
        else:
            rows.append({"item": item, "keep": keep_group(item),
                         "class": "test-only" if read_by("test", klass, attr)
                         else "unread"})
    used = {(klass, fn, param)
            for _r, _q, klass, fn, param, read, _first in model.params
            if read and klass is not None}
    for rel, qualname, klass, fn, param, read, first in model.params:
        item = f"param {rel}:{qualname}({param})"
        if read:
            rows.append({"item": item, "class": "prod", "keep": None})
            continue
        keep = None
        if first:
            keep = "self"
        elif param.startswith("_"):
            keep = "underscore"
        elif fn.startswith("__") and fn.endswith("__"):
            keep = "dunder"
        elif klass is not None:
            up, down = model.definers(klass, fn)
            if any((k, fn, param) in used for k in up):
                keep = "override"
            elif (klass, fn) in model.abstract and \
                    any((k, fn, param) in used for k in down):
                keep = "abstract"
        rows.append({"item": item, "class": "unread",
                     "keep": keep or keep_group(item)})
    return rows


def state_main():
    import time
    start = time.perf_counter()
    rows = state_census()
    counts = {}
    for row in rows:
        kind = row["item"].split(" ", 1)[0]
        c = counts.setdefault(kind, {"prod": 0, "test-only": 0, "unread": 0})
        c[row["class"]] += 1
    print(f"{'kind':<8} {'prod':>6} {'test-only':>10} {'unread':>7}")
    for kind in ("field", "attr", "param"):
        c = counts.get(kind, {"prod": 0, "test-only": 0, "unread": 0})
        print(f"{kind:<8} {c['prod']:>6} {c['test-only']:>10} "
              f"{c['unread']:>7}")
    print()
    flagged = [row for row in rows if row["class"] != "prod"]
    for row in flagged:
        print(f"{row['class']:<9} {row['keep'] or 'UNCLASSIFIED':<12} "
              f"{row['item']}")
    unclassified = sum(1 for row in flagged if row["keep"] is None)
    print(f"\n{len(flagged)} items not read by production; "
          f"{unclassified} unclassified "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if unclassified else 0


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, ".reachability"),
                        help="dump/log directory (default: %(default)s)")
    parser.add_argument("--state", action="store_true",
                        help="run the static state census instead (no run "
                             "sets, seconds)")
    args = parser.parse_args(argv)
    if args.state:
        return state_main()
    out = os.path.abspath(args.out)
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
