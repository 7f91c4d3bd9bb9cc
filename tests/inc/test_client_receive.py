"""The client agent's receive path applies piggybacked mapping changes.

Grants and revokes ride on ACKs, server replies and multicasts alike
(§5.2.2).  ``_on_packet`` only walks them when a packet carries any, so
this pins that the outcome is the same either way: every kind of packet
applies what it carries, and a packet carrying none changes nothing.
"""

import pytest

from repro.inc.app import AppConfig
from repro.inc.client_agent import ClientAgent
from repro.inc.memory import MemoryRegion
from repro.netsim import Host, Simulator
from repro.protocol import CntFwdSpec, ForwardTarget, Packet, RIPProgram

PROGRAM = RIPProgram(app_name="RX", add_to_field="r.kvs",
                     cntfwd=CntFwdSpec(target=ForwardTarget.SRC))

KINDS = {"ack": {"is_ack": True, "ack_flow": 0},
         "server reply": {"is_sa": True},
         "multicast": {"is_mcast": True},
         "bounce": {"src": "c0"}}


def _agent():
    sim = Simulator()
    agent = ClientAgent(sim, Host(sim, "c0"), tor="sw0")
    config = AppConfig(gaid=1, program=PROGRAM, server="s0",
                       clients=("c0",), value_region=MemoryRegion(0, 4096),
                       counter_region=MemoryRegion(4096, 64))
    agent.register_app(config, srrt_slots=[0])
    state = agent.app_state("RX")
    state.logical_to_key.update({7: "k7", 9: "k9"})
    state.grants[9] = 100
    state.phys_to_key[100] = "k9"
    state.lazy_baseline[100] = 3
    return agent, state


def _mapping(state):
    return (dict(state.grants), dict(state.phys_to_key),
            dict(state.lazy_baseline))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_carried_grants_and_revokes_are_applied(kind):
    agent, state = _agent()
    fields = {"src": "s0", **KINDS[kind]}
    agent._on_packet(Packet(gaid=1, dst="c0", grants=((7, 50),),
                            revokes=(9,), **fields), None)
    assert _mapping(state) == ({7: 50}, {50: "k7"}, {})


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_packet_carrying_none_leaves_the_mapping_alone(kind):
    agent, state = _agent()
    before = _mapping(state)
    agent._on_packet(Packet(gaid=1, dst="c0", **{"src": "s0",
                                                 **KINDS[kind]}), None)
    assert _mapping(state) == before
