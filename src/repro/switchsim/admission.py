"""Per-application admission state installed by the controller at runtime.

A single switch program serves every application; the controller only
installs/removes :class:`AppEntry` rows (match-action table entries), so
applications start and stop without rebooting the switch (paper §3.2,
"multi-application data plane").  Each entry keeps the last-seen
timestamp the controller polls for the two-level timeout (§5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.protocol import RIPProgram

__all__ = ["AppEntry", "AdmissionTable"]


@dataclass
class AppEntry:
    """One application's switch-resident configuration."""

    gaid: int
    program: RIPProgram
    server: str                       # server agent host name
    clients: Tuple[str, ...] = ()     # multicast group for CntFwd "ALL"
    enabled: bool = True
    last_seen: float = 0.0
    # In a multi-switch chain (§6.6) only the switch adjacent to the
    # server ("edge") runs CntFwd/forwarding decisions; upstream switches
    # process their local kv pairs and pass the packet along.
    edge: bool = True


class AdmissionTable:
    """GAID -> :class:`AppEntry` match table."""

    def __init__(self):
        self._entries: Dict[int, AppEntry] = {}

    def install(self, entry: AppEntry) -> None:
        if entry.gaid in self._entries:
            raise ValueError(f"GAID {entry.gaid} already installed")
        self._entries[entry.gaid] = entry

    def remove(self, gaid: int) -> AppEntry:
        try:
            return self._entries.pop(gaid)
        except KeyError:
            raise KeyError(f"GAID {gaid} not installed") from None

    def lookup(self, gaid: int) -> Optional[AppEntry]:
        entry = self._entries.get(gaid)
        if entry is not None and not entry.enabled:
            return None
        return entry

    def update_clients(self, gaid: int, clients: Tuple[str, ...]) -> None:
        self._entries[gaid].clients = clients

    def clear(self) -> None:
        """Reboot: match-action entries are part of the volatile config.

        The controller re-installs them on the failover path; until then
        every INC packet takes the unadmitted forwarding path.
        """
        self._entries.clear()

    def timestamps(self) -> Dict[int, float]:
        """Last-seen time per GAID, polled by the controller."""
        return {gaid: e.last_seen for gaid, e in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, gaid: int) -> bool:
        return gaid in self._entries
