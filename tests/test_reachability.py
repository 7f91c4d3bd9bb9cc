"""``tools/reachability.py``: the census collector sees every call, and
the state census classifies state as documented and passes on the tree.

Each collector case below was once lost by a naive collector: a
``setprofile`` hook is removed by ``sys.setprofile(None)`` and replaced
by cProfile, and an ``atexit`` dump never runs in a fork-started
``multiprocessing`` child, which leaves through ``os._exit``.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "reachability.py")
_spec = importlib.util.spec_from_file_location("reachability_tool", _TOOL)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

MODULE = """\
def after_setprofile_none():
    return 1

def inside_cprofile():
    return 2

def in_fork_child():
    return 3

def never_called():
    return 4
"""

SCRIPT = """\
import cProfile
import multiprocessing
import sys

import throwaway

sys.setprofile(None)
throwaway.after_setprofile_none()

profiler = cProfile.Profile()
profiler.enable()
throwaway.inside_cprofile()
profiler.disable()

child = multiprocessing.get_context("fork").Process(
    target=throwaway.in_fork_child)
child.start()
child.join()
assert child.exitcode == 0
"""


def test_collector_records_calls_every_naive_hook_misses(tmp_path):
    code_dir = tmp_path / "code"
    code_dir.mkdir()
    (code_dir / "throwaway.py").write_text(MODULE)
    (code_dir / "script.py").write_text(textwrap.dedent(SCRIPT))
    site = str(tmp_path / "site")
    dumps = str(tmp_path / "dumps")
    reachability.write_sitecustomize(site)
    env = reachability.traced_env(site, dumps, root=str(code_dir),
                                  extra_path=[str(code_dir)])
    subprocess.run([sys.executable, str(code_dir / "script.py")], env=env,
                   check=True, timeout=120)
    names = {qualname.rsplit(".", 1)[-1]
             for (filename, _line), qualname
             in reachability.load_dumps(dumps).items()
             if filename.endswith("throwaway.py")}
    assert {"after_setprofile_none", "inside_cprofile",
            "in_fork_child"} <= names
    assert "never_called" not in names


FIXTURE = os.path.join(os.path.dirname(__file__), "state_fixture")


def test_state_census_verdicts_on_the_fixture():
    rows = reachability.state_census(
        src=os.path.join(FIXTURE, "src"),
        prod=[os.path.join(FIXTURE, "readers", "prod.py")],
        tests=[os.path.join(FIXTURE, "readers", "tests.py")])
    verdicts = {row["item"]: (row["class"], row.get("keep"))
                for row in rows}
    shapes = "probe/shapes.py:"
    assert verdicts["attr " + shapes + "ProbeChild.probe_write_only"] \
        == ("unread", None)
    assert verdicts["field " + shapes + "ProbeRecord.probe_test_field"] \
        == ("test-only", None)
    assert verdicts["field " + shapes + "ProbeRecord.probe_read"][0] \
        == "prod"
    assert verdicts["attr " + shapes + "ProbeChild.probe_by_name"][0] \
        == "prod"
    assert verdicts["param " + shapes + "ProbeChild.probe_hook(probe_arg)"] \
        == ("unread", "override")
    assert verdicts["param " + shapes + "probe_function(_probe_private)"] \
        == ("unread", "underscore")
    assert verdicts["param " + shapes + "probe_function(probe_plain)"] \
        == ("unread", None)


def test_state_census_passes_on_the_tree():
    # Every stored attribute, dataclass field and parameter under
    # src/repro is read by production code or kept by a named rule.
    run = subprocess.run([sys.executable, _TOOL, "--state"],
                         capture_output=True, text=True, timeout=120)
    unclassified = [line for line in run.stdout.splitlines()
                    if "UNCLASSIFIED" in line]
    assert run.returncode == 0, "\n".join(unclassified) + run.stderr
