"""Simulation-native observability: flight recorder, metrics registry,
Perfetto export.

Quick use::

    from repro.obs import run_traced
    result = run_traced(exp_micro.run, "trace.json", fast=True)
    # -> trace.json (open in https://ui.perfetto.dev)
    # -> trace.metrics.jsonl (one line per registered instrument)

or manually::

    from repro.obs import TRACE, start_trace, stop_trace, export_trace
    start_trace()
    ... run something ...
    stop_trace()
    export_trace("trace.json")
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional, Tuple

from .capture import (
    ShardCapture,
    ShardObs,
    capture_shards,
    shard_lane,
)
from .export import (
    ARG_NAMES,
    append_record_events,
    chrome_trace,
    load_metrics_jsonl,
    load_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .merge import (
    merged_chrome_trace,
    stitch_flow_pairs,
    write_merged_trace,
)
from .registry import (
    KEEP_LIMIT,
    MetricsRegistry,
    all_registries,
    collected_snapshots,
    keep_registries,
)
from .tracer import DEFAULT_CAPACITY, TRACE, FlightRecorder

__all__ = [
    "TRACE", "FlightRecorder", "DEFAULT_CAPACITY",
    "MetricsRegistry", "all_registries", "keep_registries",
    "collected_snapshots", "KEEP_LIMIT",
    "chrome_trace", "write_chrome_trace", "write_metrics_jsonl",
    "load_trace", "load_metrics_jsonl", "validate_chrome_trace",
    "ARG_NAMES", "append_record_events",
    "ShardCapture", "ShardObs", "capture_shards", "shard_lane",
    "merged_chrome_trace", "stitch_flow_pairs", "write_merged_trace",
    "start_trace", "stop_trace", "export_trace", "run_traced",
    "metrics_path_for",
]


def start_trace(capacity: Optional[int] = None) -> None:
    """Arm the process-wide flight recorder and registry collection."""
    keep_registries(True)
    TRACE.start(capacity)


def stop_trace() -> None:
    """Disarm recording (data stays readable until the next start)."""
    TRACE.stop()


def metrics_path_for(trace_path) -> Path:
    path = Path(trace_path)
    return path.with_suffix(".metrics.jsonl")


def export_trace(trace_path, metrics_path=None) -> Tuple[Path, Path]:
    """Write the Perfetto JSON + metrics JSONL for the current recorder."""
    trace_path = Path(trace_path)
    metrics_path = Path(metrics_path) if metrics_path is not None \
        else metrics_path_for(trace_path)
    write_chrome_trace(TRACE, trace_path)
    write_metrics_jsonl(metrics_path, recorder=TRACE)
    return trace_path, metrics_path


def run_traced(fn: Callable[..., Any], trace_path,
               metrics_path=None, capacity: Optional[int] = None,
               **kwargs) -> Any:
    """Run ``fn(**kwargs)`` with tracing on; export next to the output.

    Tracing is disarmed and registry collection released afterwards even
    if the run raises; the export happens only on success.
    """
    start_trace(capacity)
    try:
        result = fn(**kwargs)
        stop_trace()
        export_trace(trace_path, metrics_path)
        return result
    finally:
        stop_trace()
        keep_registries(False)
