"""Figure 10: packet loss rate vs normalized throughput (§6.4).

Shapes under test: all three systems stay correct under loss (the test
suite proves exactness separately); NetRPC degrades most gracefully,
ATP next, and SwitchML's in-order slot pool collapses fastest.

Each loss draw is one sample of the shape, so every predicate must hold
at each seed of a set (5 is ``exp_loss.run``'s default), not at one.
"""

import pytest

from repro.experiments import exp_loss


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_fig10_loss_degradation(run_experiment, benchmark, seed):
    result = run_experiment(exp_loss.run, fast=True, seed=seed)
    normalized = result["normalized"]
    benchmark.extra_info["normalized"] = normalized
    benchmark.extra_info["absolute"] = result["absolute"]

    # Every curve starts at 1.0 and decreases monotonically-ish.
    for system, curve in normalized.items():
        assert curve[0] == 1.0
        assert curve[-1] < 1.0, system

    at_1pct = {system: curve[-1] for system, curve in normalized.items()}
    # Graceful-degradation ordering at 1% loss (paper: 0.78/0.77/0.57).
    assert at_1pct["NetRPC"] > at_1pct["SwitchML"]
    assert at_1pct["ATP"] > at_1pct["SwitchML"]
    assert at_1pct["NetRPC"] >= 0.9 * at_1pct["ATP"]
    # SwitchML's head-of-line blocking makes it markedly worse.
    assert at_1pct["SwitchML"] < 0.5 * at_1pct["NetRPC"]
