"""Count the Python calls a callable makes, per ``repro`` package.

This is the figure the call-count pins bound, and the one the benchmark
reports as ``<layer>.calls`` and ``tools/profile_experiment.py --e2e``
prints per op and per RPC: Python-level calls (C builtins do not count)
whose code lives in ``repro/<package>/``.  It does not depend on the
machine or on the run, so a bound on it is exact where a timing is not.
Python 3.12 inlines comprehensions, so the same code counts a little
lower there than on 3.10/3.11; write bounds for the higher count.
"""

import os
import sys
from collections import Counter

import repro

_ROOT = os.path.dirname(repro.__file__) + os.sep


def package_of(filename):
    """``"core"`` for ``.../repro/core/stubs.py``; None outside a package
    of ``repro``."""
    if not filename.startswith(_ROOT):
        return None
    package, sep, _module = filename[len(_ROOT):].partition(os.sep)
    return package if sep else None


def count_calls(fn, *args, bucket=package_of, **kwargs):
    """Run ``fn(*args, **kwargs)`` under ``sys.setprofile``.

    Returns ``(result, calls)``, where ``calls`` is a :class:`Counter` of
    the Python calls made while ``fn`` ran, keyed by
    ``bucket(code filename)`` — the ``repro`` package by default.  Calls
    whose bucket is None are not counted.
    """
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            key = bucket(frame.f_code.co_filename)
            if key is not None:
                calls[key] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls
