"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper's §6 on the
simulated dataplane, prints the reproduced artifact, attaches headline
numbers to pytest-benchmark's ``extra_info``, and asserts the *shape*
(orderings, ratios, crossovers) the paper reports.  Absolute values
belong to the calibrated simulator, not to Tofino silicon.  To keep the
headline numbers for a diff across commits, pass pytest-benchmark's
``--benchmark-json PATH``: its output carries every ``extra_info``.

Run with:  pytest benchmarks/ --benchmark-only
"""

import pytest


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run an experiment callable once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(lambda: fn(*args, **kwargs),
                                    rounds=1, iterations=1)
        if isinstance(result, dict) and "table" in result:
            with capsys.disabled():
                print()
                print(result["table"])
        return result

    return runner
