"""Behavioural model of the NetRPC programmable switch (paper §5.2.3, App. C).

Replaces the Barefoot Tofino of the paper's testbed.  The pipeline
executes the same RIP flowchart (Figure 15) packet by packet with
32-bit arithmetic, per-flow flip-bit retransmission state, runtime
admission entries, and line-rate recirculation costs.
"""

from .admission import AdmissionTable, AppEntry
from .flowstate import FlowStateTable
from .pipeline import Action, RIPPipeline, Verdict
from .registers import RegisterFile
from .switch import NetRPCSwitch, PlainSwitch

__all__ = [
    "AdmissionTable", "AppEntry",
    "FlowStateTable",
    "Action", "RIPPipeline", "Verdict",
    "RegisterFile",
    "NetRPCSwitch", "PlainSwitch",
]
