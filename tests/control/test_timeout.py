"""Tests for the two-level timeout (switch memory leak prevention)."""

import pytest

from repro.control import TimeoutMonitor, build_rack
from repro.inc import Task
from repro.netsim import scaled
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

CAL = scaled(first_level_timeout_s=0.05, second_level_timeout_s=0.3,
             controller_poll_interval_s=0.02)


def make_app(dep, name="APP"):
    prog = RIPProgram(app_name=name, add_to_field="r.kvs",
                      cntfwd=CntFwdSpec(target=ForwardTarget.SRC))
    (config,) = dep.controller.register([prog], server="s0",
                                        clients=["c0"], value_slots=64)
    return config


class TestTwoLevelTimeout:
    def test_idle_app_triggers_first_level(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        done = dep.client_agent(0).submit(
            Task(app=config, items=[("k", 7)], expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.2)  # go idle past first level
        assert monitor.first_level_fired("APP")
        assert not monitor.second_level_fired("APP")

    def test_first_level_retrieves_switch_values(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        agent = dep.client_agent(0)
        for value in (7, 3):   # second task maps the key onto the switch
            done = agent.submit(Task(app=config, items=[("k", value)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=5.0)
            dep.sim.run(until=dep.sim.now + 0.02)
        dep.sim.run(until=dep.sim.now + 0.2)
        server_state = dep.server_agent(0).app_state("APP")
        # All value mass is back in server software after retrieval.
        assert server_state.soft.get("k") == 10
        assert len(server_state.mm.mapped_logicals()) == 0

    def test_second_level_expires_and_reports(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        expired = {}
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL,
                                 on_expire=lambda app, data:
                                 expired.update({app: data}))
        done = dep.client_agent(0).submit(
            Task(app=config, items=[("k", 9)], expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 1.0)
        assert monitor.second_level_fired("APP")
        assert expired["APP"].get("k") == 9

    def test_active_app_never_times_out(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        agent = dep.client_agent(0)
        deadline = 0.3
        while dep.sim.now < deadline:
            done = agent.submit(Task(app=config, items=[("k", 1)],
                                     expect_result=False))
            dep.sim.run_until(done, limit=5.0)
            dep.sim.run(until=dep.sim.now + 0.01)
        assert not monitor.first_level_fired("APP")

    def test_app_revival_rearms_first_level(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        agent = dep.client_agent(0)
        done = agent.submit(Task(app=config, items=[("k", 1)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.1)   # first level fires
        assert monitor.first_level_fired("APP")
        # The app speaks again before the second level.
        done = agent.submit(Task(app=config, items=[("k", 1)],
                                 expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        dep.sim.run(until=dep.sim.now + 0.03)
        assert not monitor.second_level_fired("APP")
        assert not monitor.first_level_fired("APP")  # re-armed

    def test_stop_silences_both_levels(self):
        dep = build_rack(1, 1, cal=CAL)
        config = make_app(dep)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        done = dep.client_agent(0).submit(
            Task(app=config, items=[("k", 9)], expect_result=False))
        dep.sim.run_until(done, limit=5.0)
        monitor.stop()
        dep.sim.run(until=dep.sim.now + 1.0)   # past both levels
        assert monitor.events == []
        assert not monitor.first_level_fired("APP")

    def test_stop_leaves_no_poll_timer(self):
        # Every registered app keeps agent loops alive, so use none:
        # the monitor's poll loop is then the only thing scheduled.
        dep = build_rack(1, 1, cal=CAL)
        monitor = TimeoutMonitor(dep.sim, dep.controller, cal=CAL)
        dep.sim.run(until=0.05)                # two polls
        monitor.stop()
        dep.sim.run(until=0.1)
        assert dep.sim.peek() == float("inf")
        dep.sim.run()                          # returns: nothing re-arms
        assert dep.sim.now == 0.1
