"""Every ``__all__`` of every ``repro`` module names something, once.

A deletion that leaves its re-export behind breaks ``from ... import *``
only; no other test would notice.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), \
        sorted(n for n in set(exported) if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
