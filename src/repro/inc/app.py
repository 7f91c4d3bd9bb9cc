"""Per-application deployment descriptor shared by agents and controller.

An :class:`AppConfig` is produced by the controller at registration time
(paper Figure 1): it binds the user's RIP program to a GAID, the switch
memory reservation, the participant host names, and the operating-mode
knobs.  Client and server agents both hold the same config object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from repro.protocol import (
    DEFAULT_FMAX_CODEC,
    DEFAULT_FP_CODEC,
    AggOp,
    ClearPolicy,
    Quantizer,
    RIPProgram,
)

from .memory import MemoryRegion

__all__ = ["AppConfig", "Task", "TaskResult"]

_task_ids = itertools.count(1)


@dataclass
class AppConfig:
    """Everything both ends need to run one application's INC channel."""

    gaid: int
    program: RIPProgram
    server: str                        # server host name
    clients: Tuple[str, ...]           # client host names
    value_region: MemoryRegion         # switch registers for map values
    counter_region: MemoryRegion       # switch registers for CntFwd counters
    linear: bool = False               # SyncAgtr circular-buffer addressing
    cache_policy: str = "netrpc"
    cc_enabled: bool = True
    cc_mode: str = "aimd"              # or "dctcp" (§7 future-work mode)
    flows_per_host: int = 4
    has_switch: bool = True            # False = pure software fallback

    def __post_init__(self):
        if self.linear and self.value_region.size % 32 != 0:
            raise ValueError("linear regions must be multiples of 32")

    @cached_property
    def codec(self):
        """The value codec for this app's wire format (built once).

        Fp aggregations carry ordered fp encodings — the shared table-fp
        codec for agg=fadd, its biased variant for agg=fmax (a cleared
        register must sit below every value there).  Everything else
        keeps the paper's fixed-point :class:`Quantizer`.  All three
        expose the same ``encode(float) -> (int, bool)`` /
        ``decode(int) -> float`` surface the RPC layer codes against.
        """
        if self.program.agg is AggOp.FMAX:
            return DEFAULT_FMAX_CODEC
        if self.program.agg is AggOp.FADD:
            return DEFAULT_FP_CODEC
        return Quantizer(self.program.precision)

    @property
    def shadow(self) -> bool:
        return self.program.clear is ClearPolicy.SHADOW

    @property
    def active_region_size(self) -> int:
        """Usable value slots; shadow double-buffering halves the region."""
        return self.value_region.size // 2 if self.shadow \
            else self.value_region.size

    def counter_addr(self, chunk_number: int) -> int:
        """Physical address of the CntFwd counter for a chunk/round slot."""
        if self.counter_region.size == 0:
            raise ValueError(f"app {self.program.app_name} reserved no "
                             f"counter region")
        return self.counter_region.base + \
            chunk_number % self.counter_region.size


@dataclass
class Task:
    """One data stream handed to a client agent (an RPC call's arguments).

    ``items`` is a list of ``(key, value)`` pairs with already-quantized
    int32 values; for linear (SyncAgtr) tasks the keys are array indices
    and must be dense from 0.
    """

    app: AppConfig
    items: list                        # [(key_or_index, int32), ...]
    round: int = 0
    expect_result: bool = True         # the call reads values back
    payload: object = None
    payload_bytes: int = 0
    # Linear apps: False = a dense array indexed from 0 (SyncAgtr
    # gradients); True = sparse integer indices (e.g. one vote counter
    # per consensus instance).
    indexed: bool = False
    task_id: int = field(default_factory=lambda: next(_task_ids))

    def __post_init__(self):
        if self.app.linear and not self.indexed:
            for position, (index, _value) in enumerate(self.items):
                if index != position:
                    raise ValueError(
                        "linear tasks must be dense arrays indexed from 0 "
                        "(set indexed=True for sparse index addressing)")
        if self.app.linear and self.indexed:
            for index, _value in self.items:
                if not isinstance(index, int) or index < 0:
                    raise ValueError("indexed tasks need non-negative "
                                     "integer indices")


@dataclass
class TaskResult:
    """Outcome of a completed task, delivered via the task's done event."""

    task: Task
    values: dict                       # key -> int32 result (if expected)
    overflow_chunks: int = 0           # chunks corrected in software
    fallback_pairs: int = 0            # pairs that took the server path
    mapped_pairs: int = 0              # pairs processed on the switch
    payload: object = None             # opaque reply payload (non-INC data)

    @property
    def cache_hit_ratio(self) -> float:
        total = self.fallback_pairs + self.mapped_pairs
        return self.mapped_pairs / total if total else 0.0
