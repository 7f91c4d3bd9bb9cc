"""Split a cProfile table across the source packages under ``src/repro/``.

No file under ``src/`` is instrumented: the harness wraps the run phase of
one extra iteration in ``cProfile`` and attributes every function to the
layer its file lives in.  C builtins have no file, so their self time is
charged to the layer of each *caller* through the pstats callers table --
that way the layers sum to the profiled total instead of leaving a fifth
of it in an anonymous "builtins" bucket.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["LAYERS", "layer_of", "attribute"]

#: packages under src/repro/ that are layers of the running system;
#: everything else (stdlib, the harness, experiments/sweep) is "other"
LAYERS = ("netsim", "switchsim", "inc", "protocol", "core", "control",
          "apps", "shard", "workloads", "obs", "other")

_MARKER = "/src/repro/"

# pstats key: (filename, line, function name); builtins use filename "~".
# Row: (primitive calls, calls, self time, cumulative time, callers), where
# callers maps a caller's key to that edge's (calls, primitive, self, cum).
Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """Map a source path to its layer; unknown paths are ``other``."""
    path = filename.replace("\\", "/")
    at = path.rfind(_MARKER)
    if at < 0:
        return "other"
    package = path[at + len(_MARKER):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats(...).stats`` -> per-layer self time and call counts.

    ``self_s``  profiler self time of the layer's Python functions plus the
                self time of the builtins they call;
    ``calls``   Python calls executed in the layer;
    ``entries`` calls whose (Python) caller is in a different layer -- the
                traffic across the layer's public boundary.  A call made
                *through* a builtin (``sorted(key=...)``, ``map``) has no
                Python caller on record and counts as neither.
    """
    out = {layer: {"self_s": 0.0, "calls": 0, "entries": 0}
           for layer in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename == "~":
            charged = 0.0
            for (caller_file, _l, _n), edge in callers.items():
                out[layer_of(caller_file)]["self_s"] += edge[2]
                charged += edge[2]
            # a root builtin (the profiler's own disable()) has no caller
            out["other"]["self_s"] += tt - charged
            continue
        layer = layer_of(filename)
        row = out[layer]
        row["self_s"] += tt
        row["calls"] += nc
        for (caller_file, _l, _n), edge in callers.items():
            if caller_file != "~" and layer_of(caller_file) != layer:
                row["entries"] += edge[0]
    return out
