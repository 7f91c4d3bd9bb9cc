"""Tests for calibration scaling and the host CPU service model."""

import pytest

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Host, Simulator, scaled
from repro.protocol import KV_PAIRS_PER_PACKET
from repro.switchsim.registers import GROUPS_PER_STAGE, MAP_STAGES


class TestCalibration:
    def test_default_is_paper_testbed_scale(self):
        cal = DEFAULT_CALIBRATION
        assert cal.link_bandwidth_bps == 100e9
        assert cal.w_max == 256
        assert KV_PAIRS_PER_PACKET == 32
        assert cal.memory_segments == 32
        assert cal.segment_registers == 40_000
        assert (MAP_STAGES, GROUPS_PER_STAGE) == (8, 4)

    def test_scaled_overrides_single_field(self):
        cal = scaled(w_max=64)
        assert cal.w_max == 64
        assert cal.link_bandwidth_bps == 100e9

    def test_scaled_does_not_mutate_default(self):
        scaled(w_max=8)
        assert DEFAULT_CALIBRATION.w_max == 256

    def test_calibration_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CALIBRATION.w_max = 1


class TestHostCpuModel:
    def test_run_on_core_charges_time(self):
        sim = Simulator()
        host = Host(sim, "h", cores=1, rx_cpu_cost_s=1e-3)
        seen = []
        host.run_on_core(2e-3, lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(2e-3)]

    def test_run_on_core_zero_cost_is_immediate(self):
        sim = Simulator()
        host = Host(sim, "h")
        seen = []
        host.run_on_core(0.0, lambda _: seen.append(sim.now))
        assert seen == [0.0]

    def test_extra_work_contends_with_packet_processing(self):
        sim = Simulator()
        host = Host(sim, "h", cores=1, rx_cpu_cost_s=1e-3)
        order = []
        host.set_handler(lambda p: order.append(("pkt", sim.now)))

        class P:
            size_bytes = 10

        host.receive(P())
        host.run_on_core(1e-3, lambda _: order.append(("work", sim.now)))
        sim.run()
        assert order == [("pkt", pytest.approx(1e-3)),
                         ("work", pytest.approx(2e-3))]

    def test_utilisation_accounting(self):
        sim = Simulator()
        host = Host(sim, "h", cores=2, rx_cpu_cost_s=1e-3)

        class P:
            size_bytes = 10

        done = []
        host.set_handler(lambda p: done.append(sim.now))
        for _ in range(4):
            host.receive(P())
        sim.run()
        # 4 packets x 1 ms over 2 cores: two finish at 1 ms, two at 2 ms.
        assert done == [pytest.approx(1e-3)] * 2 + [pytest.approx(2e-3)] * 2
