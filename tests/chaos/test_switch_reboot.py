"""Mid-round switch reboot: the ISSUE acceptance scenario.

A ``SwitchReboot`` injected mid-round on ``exp_micro``'s topology
(``build_rack(2, 1)``) wipes the register file, the flow-state table and
the admission entries.  The round must still complete via the
controller's failover re-install with a correct result — or report an
explicit failure — but never return a silent wrong aggregate.

The 24-seed acceptance grid and the reboot-phase sweep fan out through
the sweep engine (worker count from ``REPRO_SWEEP_WORKERS``): each seed
is an independent pure run, and the engine's ordered merge keeps the
per-seed verdicts attributable.  A crashed or hung seed surfaces as a
structured ``RunFailure`` in the report instead of aborting the sweep.
"""

import pytest

from repro.control import TimeoutMonitor, build_rack
from repro.experiments.common import run_chaos_reboot_round
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram
from repro.sweep import RunFailure, RunSpec, SweepEngine

pytestmark = pytest.mark.chaos

REBOOT_ROUND_FN = "repro.experiments.common.run_chaos_reboot_round"
# Generous wall budget per 256-value round (~10 ms nominal): only a
# pathological hang trips it, and a trip is a RunFailure, not a crash.
ROUND_TIMEOUT_S = 60.0


def _judge(tag, outcome, problems, require_reboot=True):
    """Append a description of anything wrong with one sweep outcome."""
    if isinstance(outcome, RunFailure):
        problems.append(f"{tag}: [{outcome.kind}] {outcome.message}")
        return
    result = outcome.value
    if result.violations:
        problems.append(f"{tag}: invariant violations {result.violations}")
    elif not (result.ok or result.failure):
        problems.append(f"{tag}: round neither completed nor failed "
                        f"explicitly")
    elif require_reboot and result.switch_stats.get("reboots") != 1:
        problems.append(f"{tag}: expected exactly one reboot, stats="
                        f"{result.switch_stats.get('reboots')}")
    elif require_reboot and result.audit.get("failovers") != 1:
        problems.append(f"{tag}: expected exactly one failover in the "
                        f"audit trail, audit={result.audit}")
    elif require_reboot and result.audit.get("flows_resynced", 0) < 1:
        problems.append(f"{tag}: failover resynced no flows, "
                        f"audit={result.audit}")
    elif require_reboot and not any(entry[0] == "failover"
                                    for entry in result.audit_trail):
        problems.append(f"{tag}: audit log lacks the failover entry: "
                        f"{result.audit_trail}")


class TestMidRoundReboot:
    SEEDS = tuple(range(24))

    def test_round_survives_reboot_or_fails_loudly_all_seeds(self):
        specs = [RunSpec(REBOOT_ROUND_FN, {"frac": 0.45}, seed=seed,
                         label=f"reboot-seed-{seed}",
                         timeout_s=ROUND_TIMEOUT_S)
                 for seed in self.SEEDS]
        outcomes = SweepEngine().run(specs)
        problems = []
        for seed, outcome in zip(self.SEEDS, outcomes):
            _judge(f"seed {seed}", outcome, problems)
        assert not problems, "\n".join(problems)

    def test_reboot_phase_sweep(self):
        fracs = (0.1, 0.3, 0.6, 0.9)
        specs = [RunSpec(REBOOT_ROUND_FN, {"frac": frac}, seed=5,
                         label=f"reboot-frac-{frac}",
                         timeout_s=ROUND_TIMEOUT_S)
                 for frac in fracs]
        outcomes = SweepEngine().run(specs)
        problems = []
        for frac, outcome in zip(fracs, outcomes):
            _judge(f"frac {frac}", outcome, problems, require_reboot=False)
        assert not problems, "\n".join(problems)

    def test_server_gate_blocks_unprocessed_packets(self):
        # During the failover window INC packets bypass the (cold) switch
        # pipeline; the server agent must refuse to treat them as
        # aggregated results rather than folding partial sums.
        result = run_chaos_reboot_round(seed=3, frac=0.45)
        assert not result.violations
        assert result.ok
        assert result.server_stats.get("unprocessed_rx", 0) >= 1

    def test_traced_reboot_span_counts_match_audit(self):
        # The flight recorder's failover spans must agree with the
        # controller's own audit counters (span <-> metrics consistency
        # on the chaos path); tracing must not perturb the verdict.
        from repro.obs import TRACE, keep_registries, start_trace

        start_trace()
        try:
            result = run_chaos_reboot_round(seed=7, frac=0.45)
            assert not result.violations
            assert result.ok or result.failure
            assert result.audit.get("failovers") == 1
            assert TRACE.counts.get("control.failover", 0) == 1
            assert TRACE.counts.get("control.reboot", 0) == \
                result.switch_stats.get("reboots")
            assert TRACE.counts.get("inc.resync", 0) == \
                result.audit.get("flows_resynced")
        finally:
            TRACE.clear()
            keep_registries(False)


class TestTwoLevelTimeouts:
    TCAL = scaled(first_level_timeout_s=0.05, second_level_timeout_s=0.3,
                  controller_poll_interval_s=0.02)

    def _app(self, dep, name="APP"):
        prog = RIPProgram(app_name=name, add_to_field="r.kvs",
                          cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
        (config,) = dep.controller.register([prog], server="s0",
                                            clients=["c0"], value_slots=64)
        return config

    def test_reboot_without_failover_trips_both_levels(self):
        """A reboot wipes the admission entries, so the app goes silent
        from the controller's vantage point.  With the failover handler
        deliberately withheld, the first-level timeout must fire, then
        the second-level timeout (paper §5.2.2) must expire the app
        instead of leaking its registration forever."""
        dep = build_rack(1, 1, cal=self.TCAL, seed=11)
        config = self._app(dep)
        expired = {}
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=self.TCAL,
                                 on_expire=lambda app, data:
                                 expired.update({app: data}))
        agent = dep.client_agent(0)
        for value in (9, 3):   # second task maps the key on the switch
            done = agent.submit(Task(app=config, items=[("k", value)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=5.0)

        dep.switches[0].reboot()   # no handle_switch_reboot on purpose
        dep.sim.run(until=dep.sim.now + 1.0)
        assert monitor.first_level_fired("APP")
        assert monitor.second_level_fired("APP")
        assert "APP" in expired

    def test_prompt_failover_keeps_active_app_alive(self):
        """If the controller re-installs the entries right away, an app
        that keeps talking never reaches even the first timeout level."""
        dep = build_rack(1, 1, cal=self.TCAL, seed=11)
        config = self._app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=self.TCAL)
        agent = dep.client_agent(0)
        rebooted = False
        deadline = 0.3
        while dep.sim.now < deadline:
            done = agent.submit(Task(app=config, items=[("k", 1)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=5.0)
            dep.sim.run(until=dep.sim.now + 0.01)
            if not rebooted and dep.sim.now > 0.1:
                dep.switches[0].reboot()
                dep.controller.handle_switch_reboot(dep.switches[0])
                rebooted = True
        assert rebooted
        assert not monitor.first_level_fired("APP")
