"""Count the Python calls a callable makes, per ``repro`` package.

This is the figure the call-count pins bound: Python-level calls (C
builtins do not count) whose code lives in ``repro/<package>/``.  Code
compiled from a string — a dataclass's generated ``__init__``/``__eq__``,
a namedtuple's ``__new__`` — has no file of its own (``<string>``); it
counts for the module of its ``self``'s class (``Packet.__init__`` is
``protocol``), else for its caller's.  The benchmark's ``<layer>.calls``
and the per-package lines of ``tools/profile_experiment.py --e2e`` still
bucket by file alone, so they file those frames under ``other``.  The
message classes ``repro.core`` generates are compiled under a file name
inside the package (``.../core/messages.py<Proposal>``), so every
counter files them under ``core``.  The figure does
not depend on the machine or on the run, so a bound on it is exact where
a timing is not.  Python 3.12 inlines comprehensions, so the same code
counts a little lower there than on 3.10/3.11; write bounds for the
higher count.
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


def home_of(frame):
    """The file a frame's call counts for.

    A frame of generated code belongs to the module that defines its
    ``self``'s class, or — with no ``self`` (a namedtuple's ``__new__``)
    — to its caller's file.
    """
    filename = frame.f_code.co_filename
    if filename != "<string>":
        return filename
    owner = frame.f_locals.get("self")
    if owner is not None:
        module = sys.modules.get(type(owner).__module__)
        home = getattr(module, "__file__", None)
        if home:
            return home
    caller = frame.f_back
    return filename if caller is None else caller.f_code.co_filename


def count_calls(fn, *args, bucket=package_of, **kwargs):
    """Run ``fn(*args, **kwargs)`` under ``sys.setprofile``.

    Returns ``(result, calls)``, where ``calls`` is a :class:`Counter` of
    the Python calls made while ``fn`` ran, keyed by ``bucket(file)`` —
    the ``repro`` package by default — with ``file`` from
    :func:`home_of`.  Calls whose bucket is None are not counted.
    """
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            key = bucket(home_of(frame))
            if key is not None:
                calls[key] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls


def callers_of(code, fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under ``sys.setprofile``.

    Returns ``(result, callers)``, where ``callers`` is a
    :class:`Counter` of the code objects that called the function whose
    code object is ``code`` while ``fn`` ran.
    """
    callers = Counter()

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            callers[frame.f_back.f_code] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, callers
