"""One of each case the state census classifies (see readers/)."""

from dataclasses import dataclass


@dataclass
class ProbeRecord:
    probe_read: int            # read by the production reader
    probe_test_field: int      # read only by the test reader


class ProbeBase:
    def probe_hook(self, probe_arg):
        return probe_arg


class ProbeChild(ProbeBase):
    def __init__(self):
        self.probe_write_only = 1        # stored, read nowhere
        self.probe_by_name = 2           # read through getattr only

    def probe_hook(self, probe_arg):     # an override: the base reads it
        return 0


def probe_function(probe_plain, _probe_private):
    return 0
