"""One INC semantics: the server's software path against the switch.

Host agents emulate every switch operation in software (paper §3.2), so
a NetFilter registered ``software_only=True`` must answer every call as
the same filter registered on a switch does.  Hypothesis draws a
program from the filters ``parse_netfilter`` accepts, linear
(``INT32Array``) or keyed (``STRINTMap``) addressing, 1-3 clients and a
round-by-round call schedule, runs it on both registrations and
compares each call's reply and, for a keyed app, the server's totals
(``ServerStub.inc_map_snapshot``; a linear app's switch registers are
addressed by position, not by key, so only its replies compare).
Values stay small, so nothing overflows and the match is exact; where
a call fails, both sides must fail with the same error.

Each round sends one call per client and rounds run one after another.
The switch answers within the RTT and the server a link and a CPU slot
later, so the schedules keep outcomes that depend on timing out:

* a threshold-0 program sends one call at a time: with concurrent
  calls a copy-clearing switch read races its own clearing return
  (CHANGES.md logs the race);
* a counting round has exactly as many clients as its threshold: a
  call past the threshold counts toward the next round, unless a
  clearing return gets there first — the same race;
* a counting program retries ``persist``: a ``fresh`` retry is a new
  attempt that counts and adds again, so what it adds depends on when
  its timer fires.

The fadd agg is left out: its register add is the table fp add, whose
truncation the ``fpinc`` suites bound against the exact float64 sum,
so it cannot match the software map exactly.

The marker is ``incdiff``; ``INCDIFF_MAX_EXAMPLES`` sets the budget.
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.control import build_rack
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.netsim import scaled

pytestmark = pytest.mark.incdiff

EXAMPLES = int(os.environ.get("INCDIFF_MAX_EXAMPLES", "200"))
CAL = scaled()
CALL_LIMIT_S = 5e-3           # a call unanswered this long has hung
SETTLE_S = 1e-3               # idle time between rounds

PROTOS = {
    True: """
import "netrpc.proto";
message Grad { netrpc.INT32Array values = 1; }
message Sum { netrpc.INT32Array values = 1; }
service S { rpc Update (Grad) returns (Sum) {} filter "f.nf" }
""",
    False: """
import "netrpc.proto";
message Push { netrpc.STRINTMap kvs = 1; }
message Pull { netrpc.STRINTMap kvs = 1; }
service S { rpc Update (Push) returns (Pull) {} filter "f.nf" }
""",
}
FIELDS = {True: ("Grad.values", "Sum.values", "values"),
          False: ("Push.kvs", "Pull.kvs", "kvs")}


def run(netfilter, linear, rounds, software_only):
    """Each call's reply value, then the server totals of a keyed app.
    A registration the controller rejects is its error's message; a call
    that fails ends the run with its error's type."""
    clients = [f"c{i}" for i in range(len(rounds[0]))]
    dep = build_rack(len(clients), 1, cal=CAL)
    service = NetRPCService.from_text(PROTOS[linear], "S",
                                      {"f.nf": netfilter})
    field = FIELDS[linear][2]
    one_at_a_time = netfilter["CntFwd"]["threshold"] == 0
    outcome = []
    try:
        registered = register_service(dep, service, server="s0",
                                      clients=clients, value_slots=64,
                                      counter_slots=64,
                                      software_only=software_only)
    except ValueError as exc:
        return [("error", str(exc))], {}
    request = registered.binding("Update").request
    stubs = [Channel(registered, client).stub() for client in clients]
    try:
        for round_no, calls in enumerate(rounds):
            events = []
            for stub, value in zip(stubs, calls):
                events.append(stub.call_async(
                    "Update", request(**{field: value}), round=round_no))
                if one_at_a_time:
                    outcome.append(_reply(dep, events.pop(), field))
                    dep.sim.run(until=dep.sim.now + SETTLE_S)
            outcome.extend(_reply(dep, event, field) for event in events)
            dep.sim.run(until=dep.sim.now + SETTLE_S)
    except Exception as exc:                      # noqa: BLE001
        outcome.append(("error", type(exc).__name__))
    totals = {} if linear else {
        key: value for key, value in
        ServerStub(registered).inc_map_snapshot().items() if value}
    return outcome, totals


def _reply(dep, event, field):
    reply, _info = dep.sim.run_until(event, limit=dep.sim.now + CALL_LIMIT_S)
    return getattr(reply, field)


def assert_same(netfilter, linear, rounds):
    on_switch = run(netfilter, linear, rounds, software_only=False)
    in_software = run(netfilter, linear, rounds, software_only=True)
    assert in_software == on_switch


# --- draws -------------------------------------------------------------
MODIFY_OPS = ["nop", "max", "min", "add", "assign", "shiftl", "shiftr",
              "band", "bor", "bnot", "bxor"]


@st.composite
def programs(draw):
    """A valid NetFilter for one addressing, as its JSON dict."""
    linear = draw(st.booleans())
    add_field, get_field, _ = FIELDS[linear]
    agg = draw(st.sampled_from(["add", "qadd", "topk", "fmax"]))
    fp = agg == "fmax"
    clear = draw(st.sampled_from(
        ["nop", "copy", "shadow"] if fp else
        ["nop", "copy", "shadow", "lazy"]))
    threshold = draw(st.integers(0, 3))
    if fp and threshold and not linear:
        threshold = 0          # fp registers cannot count (Controller)
    netfilter = {
        "AppName": "DIFF",
        "get": draw(st.sampled_from(["nop", get_field])),
        "addTo": draw(st.sampled_from(["nop", add_field])),
        "clear": clear,
        "CntFwd": {"to": draw(st.sampled_from(["SERVER", "SRC", "ALL"])),
                   "threshold": threshold, "key": "ClientID"},
        "agg": agg,
    }
    if not fp:
        netfilter["modify"] = {"op": draw(st.sampled_from(MODIFY_OPS)),
                               "para": draw(st.integers(0, 9))}
    if threshold:
        netfilter["retry"] = "persist"
    elif draw(st.booleans()):
        netfilter["retry"] = draw(st.sampled_from(["persist", "fresh"]))
    return netfilter, linear


@st.composite
def schedules(draw, linear, threshold):
    """Rounds of one call per client: equal-length arrays, or maps over
    a few keys."""
    n_clients = threshold or draw(st.integers(1, 3))
    n_rounds = draw(st.integers(1, 3))
    if linear:
        size = draw(st.integers(1, 4))
        call = st.lists(st.integers(0, 50), min_size=size, max_size=size)
    else:
        call = st.dictionaries(st.sampled_from("abcd"), st.integers(0, 50),
                               min_size=1, max_size=3)
    return [[draw(call) for _ in range(n_clients)]
            for _ in range(n_rounds)]


@st.composite
def cases(draw):
    netfilter, linear = draw(programs())
    threshold = netfilter["CntFwd"]["threshold"]
    return netfilter, linear, draw(schedules(linear, threshold))


def _filter(linear, get, add, clear, to, threshold):
    add_field, get_field, _ = FIELDS[linear]
    netfilter = {"AppName": "DIFF", "get": get_field if get else "nop",
                 "addTo": add_field if add else "nop", "clear": clear,
                 "CntFwd": {"to": to, "threshold": threshold,
                            "key": "ClientID"}}
    if threshold:
        netfilter["retry"] = "persist"
    return netfilter


# Every divergence the draws found on the server's software path before
# it ran ``protocol.apply`` (CHANGES.md names each), with what both
# registrations now answer.  Each reads its values back (``get``).
FOUND = {
    # Software-only linear rounds were cleared once they fired, under
    # every policy; the switch never clears under nop.
    "nop-rounds-keep-their-total": (
        _filter(True, True, True, "nop", "ALL", 2),
        [[[1, 2, 3, 4], [10, 20, 30, 40]],
         [[5, 6, 7, 8], [100, 200, 300, 400]], [[1, 1, 1, 1], [2, 2, 2, 2]]],
        [[11, 22, 33, 44]] * 2 + [[116, 228, 340, 452]] * 2
        + [[119, 231, 343, 455]] * 2),
    # Keyed lazy read 1/4/5 on the switch and 1/4/9 in software, neither
    # lazy's delta: the controller now refuses it.
    "keyed-lazy-is-refused": (
        _filter(False, True, True, "lazy", "SRC", 0),
        [[{"a": 1, "b": 2}], [{"a": 3}], [{"a": 5, "c": 7}]],
        [("error", "application 'DIFF': clear=lazy needs linear "
                   "addressing")]),
    # An absorbed call's retransmission was dropped in software; the
    # switch bounces it the round's aggregate.
    "absorbed-retransmission-reads": (
        _filter(True, True, True, "copy", "SRC", 2),
        [[[4], [5]], [[1], [2]]], [[9], [9], [3], [3]]),
    # A round forwarded to the server is backed up and cleared there; the
    # software path answered its sender alone.
    "server-target-round": (
        _filter(True, True, True, "lazy", "SERVER", 2),
        [[[7, 6], [2, 9]], [[1, 1], [1, 1]]],
        [[9, 15], [9, 15], [2, 2], [2, 2]]),
    # A read forwarded to the server got an ACK but never its values on
    # the switch path (software answered).
    "server-target-read": (
        _filter(True, True, True, "nop", "SERVER", 0),
        [[[9]], [[1]]], [[9], [10]]),
    # A keyed counter is the key's own register: Map.get reads the count.
    "keyed-counter-is-the-entry": (
        _filter(False, True, False, "nop", "ALL", 2),
        [[{"a": 1}, {"a": 2}], [{"a": 3}, {"a": 4}]], [{"a": 1}] * 4),
    # Shadow and lazy rounds start fresh (a double buffer, a baseline);
    # software kept accumulating.
    "shadow-rounds-start-fresh": (
        _filter(True, True, True, "shadow", "SRC", 0),
        [[[3]], [[4]], [[5]]], [[3], [4], [5]]),
    "lazy-rounds-read-deltas": (
        _filter(True, True, True, "lazy", "SRC", 0),
        [[[3], [5]], [[4], [6]]], [[3], [8], [9], [10]]),
    # A copy round's clearing return releases test&set; software held it.
    "copy-releases-test-and-set": (
        _filter(True, True, True, "copy", "ALL", 1),
        [[[3]], [[9]]], [[3], [9]]),
}


def with_found_examples(test):
    for netfilter, rounds, _want in FOUND.values():
        test = example(case=(netfilter, _linear(netfilter), rounds))(test)
    return test


def _linear(netfilter):
    return netfilter["get"] == FIELDS[True][1]


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@with_found_examples
@given(case=cases())
def test_software_path_answers_as_the_switch_does(case):
    assert_same(*case)


@pytest.mark.parametrize("name", sorted(FOUND))
def test_a_found_divergence_answers_as_the_switch(name):
    netfilter, rounds, want = FOUND[name]
    for software_only in (False, True):
        outcome, _totals = run(netfilter, _linear(netfilter), rounds,
                               software_only)
        assert outcome == want, software_only
