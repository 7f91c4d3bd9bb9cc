"""Odds and ends: admission table edges, app removal, ECN state cleanup."""

import pytest

from repro.netsim import Host, Simulator, scaled, star
from repro.protocol import (CntFwdSpec, ForwardTarget, KVBlock, Packet,
                            RIPProgram)
from repro.switchsim import AdmissionTable, AppEntry, NetRPCSwitch

CAL = scaled(host_pkt_cpu_s=0.0)
PROG = RIPProgram(app_name="x", get_field="a.b", add_to_field="c.d")


class TestAdmissionTable:
    def test_double_install_rejected(self):
        table = AdmissionTable()
        table.install(AppEntry(gaid=1, program=PROG, server="s0"))
        with pytest.raises(ValueError, match="already installed"):
            table.install(AppEntry(gaid=1, program=PROG, server="s0"))

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            AdmissionTable().remove(9)

    def test_disabled_entry_not_served(self):
        table = AdmissionTable()
        entry = AppEntry(gaid=1, program=PROG, server="s0", enabled=False)
        table.install(entry)
        assert table.lookup(1) is None
        entry.enabled = True
        assert table.lookup(1) is entry

    def test_len_and_contains(self):
        table = AdmissionTable()
        table.install(AppEntry(gaid=3, program=PROG, server="s0"))
        assert 3 in table and 4 not in table
        assert list(table.timestamps()) == [3]


class TestSwitchRemoval:
    def test_remove_app_clears_ecn_state(self):
        sim = Simulator()
        switch = NetRPCSwitch(sim, "sw0", cal=CAL)
        hosts = [Host(sim, "h0"), Host(sim, "h1")]
        star(sim, switch, hosts, cal=CAL)
        switch.install_app(AppEntry(gaid=1, program=PROG, server="h1",
                                    clients=("h0",)))
        pkt = Packet(gaid=1, src="h0", dst="h1",
                     kv=KVBlock.from_columns([0], [1], mapped_mask=-1))
        pkt.select_all_slots()
        pkt.ecn = True
        hosts[1].set_handler(lambda p: None)
        hosts[0].send(pkt, "sw0")
        sim.run()
        assert switch._ecn_marked_at.get(1) is not None
        switch.remove_app(1)
        assert 1 not in switch._ecn_marked_at

    def test_flow_slots_survive_app_removal(self):
        """SRRT slots are per-connection, not per-app (§5.1)."""
        sim = Simulator()
        switch = NetRPCSwitch(sim, "sw0", cal=CAL)
        slot = switch.allocate_flow_slot()
        switch.install_app(AppEntry(gaid=1, program=PROG, server="s"))
        switch.remove_app(1)
        # intact: seq 0 still holds the all-ones bit, so flip 1 repeats
        assert switch.flow_state.check_and_update(slot, 0, 1)


class TestPacketFieldSizes:
    def test_revokes_add_bytes(self):
        base = Packet(gaid=1, src="a", dst="b")
        with_revokes = Packet(gaid=1, src="a", dst="b", revokes=(1, 2))
        assert with_revokes.size_bytes - base.size_bytes == 8

    def test_copy_preserves_new_fields(self):
        pkt = Packet(gaid=1, src="a", dst="b", round=7, task_total=64,
                     shadow_offset=-32, ecn_echo=True)
        dup = pkt.copy()
        assert dup.round == 7 and dup.task_total == 64
        assert dup.shadow_offset == -32 and dup.ecn_echo
