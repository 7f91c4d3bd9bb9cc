"""One namespaced registry over the repo's ad-hoc metric instruments.

Before this module, every layer owned loose ``Counter`` / ``RateMeter``
/ ``LatencyRecorder`` instances (plus plain stats dicts on the agents).
A :class:`MetricsRegistry` subsumes them:

* ``register(name, obj)`` files any instrument under a dotted name
  (``"link.c0->sw0"``, ``"pipeline.sw0"``, ``"control.audit"``);
  duplicate names get a ``#N`` suffix instead of clobbering;
* ``snapshot()`` / ``diff()`` flatten everything into one
  ``{"entry.key": value}`` dict for judging and export.

Instruments always record: benchmark fingerprints are metrics
snapshots, so the registry has no off switch.

Lifetime: the registry holds strong references to its instruments (they
are owned by the same deployment and die together); the module-level
:data:`_ALL` set holds only *weak* references to registries, so a
finished deployment is garbage-collected normally.  While a traced run
is collecting (:func:`keep_registries`), registries are additionally
retained — bounded by :data:`KEEP_LIMIT`, older ones frozen to a final
snapshot — so the end-of-run metrics dump can see deployments that
would otherwise be dead by export time.

Duck-typed snapshots keep this module import-free of the instrument
classes (no cycles): anything with ``as_dict``/``summary``/
``average_gbps`` — or a ``snapshot`` callable passed at registration —
participates.
"""

from __future__ import annotations

import itertools
import json
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "all_registries",
    "keep_registries",
    "collected_snapshots",
    "KEEP_LIMIT",
]

_IDS = itertools.count()
_ALL: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()

# Traced-run collection: strong refs to the most recent registries plus
# frozen snapshots of evicted ones (bounded memory for long sweeps).
KEEP_LIMIT = 64
_KEPT: Optional[List["MetricsRegistry"]] = None
_FROZEN: List[Tuple[str, Dict[str, float]]] = []


def _auto_snapshot(obj: Any) -> Dict[str, Any]:
    """Best-effort flat view of one instrument (duck-typed dispatch)."""
    as_dict = getattr(obj, "as_dict", None)
    if as_dict is not None:                       # Counter
        return as_dict()
    summary = getattr(obj, "summary", None)
    if summary is not None:                       # LatencyRecorder
        return summary()
    if hasattr(obj, "average_gbps"):              # RateMeter
        return {"total_bytes": obj.total_bytes,
                "average_gbps": obj.average_gbps()}
    if isinstance(obj, dict):
        return dict(obj)
    stats = getattr(obj, "stats", None)
    if stats is not None:                         # nodes, agents, flows
        return _auto_snapshot(stats)
    raise TypeError(f"no snapshot strategy for {type(obj).__name__}; "
                    f"pass snapshot= explicitly")


def _has_strategy(obj: Any) -> bool:
    """Whether :func:`_auto_snapshot` can handle ``obj`` (fail fast at
    registration, not at export time)."""
    if isinstance(obj, dict):
        return True
    if any(hasattr(obj, attr) for attr in
           ("as_dict", "summary", "average_gbps")):
        return True
    stats = getattr(obj, "stats", None)
    return stats is not None and _has_strategy(stats)


class MetricsRegistry:
    """Namespaced collection of metric instruments."""

    def __init__(self, name: str = ""):
        self.name = f"{name or 'registry'}-{next(_IDS)}"
        # name -> (instrument, snapshot_fn)
        self._entries: Dict[str, Tuple[Any, Callable[[Any], Dict]]] = {}
        _ALL.add(self)
        if _KEPT is not None:
            _KEPT.append(self)
            while len(_KEPT) > KEEP_LIMIT:
                old = _KEPT.pop(0)
                _FROZEN.append((old.name, old.snapshot()))

    # ------------------------------------------------------------------
    def register(self, name: str, obj: Any,
                 snapshot: Optional[Callable[[Any], Dict]] = None) -> Any:
        """File ``obj`` under ``name``; returns ``obj`` for chaining."""
        if snapshot is None and not _has_strategy(obj):
            raise TypeError(f"no snapshot strategy for "
                            f"{type(obj).__name__}; pass snapshot= "
                            f"explicitly")
        unique, n = name, 1
        while unique in self._entries:
            n += 1
            unique = f"{name}#{n}"
        self._entries[unique] = (obj, snapshot or _auto_snapshot)
        return obj

    def names(self) -> List[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------
    # snapshot / diff / export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{"entry.key": value}`` view of every instrument."""
        out: Dict[str, Any] = {}
        for name, (obj, snap) in self._entries.items():
            for key, value in snap(obj).items():
                out[f"{name}.{key}"] = value
        return out

    def snapshot_nested(self) -> Dict[str, Dict[str, Any]]:
        """Per-entry view (one dict per instrument), for JSONL export."""
        return {name: dict(snap(obj))
                for name, (obj, snap) in self._entries.items()}

    @staticmethod
    def diff(before: Dict[str, Any], after: Dict[str, Any]
             ) -> Dict[str, Any]:
        """Numeric deltas between two snapshots (changed keys only).

        Keys present on one side only appear verbatim under ``+key`` /
        ``-key`` so a diff never silently hides a metric appearing or
        vanishing between the two snapshots.
        """
        out: Dict[str, Any] = {}
        for key, value in after.items():
            if key not in before:
                out[f"+{key}"] = value
            elif isinstance(value, (int, float)) and \
                    isinstance(before[key], (int, float)):
                if value != before[key]:
                    out[key] = value - before[key]
            elif value != before[key]:
                out[key] = (before[key], value)
        for key, value in before.items():
            if key not in after:
                out[f"-{key}"] = value
        return out

    def export_jsonl(self, path) -> int:
        """Write one JSON line per instrument; returns the line count."""
        lines = 0
        with open(path, "w") as fh:
            for name, values in self.snapshot_nested().items():
                fh.write(json.dumps({"registry": self.name, "metric": name,
                                     "values": values}, sort_keys=True,
                                    default=str) + "\n")
                lines += 1
        return lines


# ---------------------------------------------------------------------------
# module-level helpers over every live registry
# ---------------------------------------------------------------------------
def all_registries() -> List[MetricsRegistry]:
    """Every live registry, oldest first (deterministic by creation id)."""
    return sorted(_ALL, key=lambda r: int(r.name.rsplit("-", 1)[1]))


def keep_registries(keep: bool) -> None:
    """Toggle traced-run collection of registries for the metrics dump."""
    global _KEPT
    if keep:
        if _KEPT is None:
            _KEPT = []
            _FROZEN.clear()
    else:
        _KEPT = None
        _FROZEN.clear()


def collected_snapshots() -> List[Tuple[str, Dict[str, Dict[str, Any]]]]:
    """(registry name, per-entry snapshot) for everything collected.

    Frozen (evicted) registries contribute their final flat snapshot
    under a single ``"frozen"`` entry; live collected registries are
    snapshotted now.
    """
    out: List[Tuple[str, Dict[str, Dict[str, Any]]]] = []
    for name, flat in _FROZEN:
        out.append((name, {"frozen": dict(flat)}))
    seen = set(name for name, _ in out)
    live = list(_KEPT) if _KEPT is not None else []
    for reg in live + [r for r in all_registries() if r not in (live or [])]:
        if reg.name in seen:
            continue
        seen.add(reg.name)
        out.append((reg.name, reg.snapshot_nested()))
    return out
