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
from typing import Optional, Tuple

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
        ``decode(int) -> float`` surface, and its whole-tensor form
        ``encode_many`` / ``decode_many``, which the RPC layer codes
        against.
        """
        if self.program.agg is AggOp.FMAX:
            return DEFAULT_FMAX_CODEC
        if self.program.agg is AggOp.FADD:
            return DEFAULT_FP_CODEC
        return Quantizer(self.program.precision)

    # ``program`` and ``value_region`` are fixed at construction, so what
    # follows from them is derived once, like ``codec``.
    @cached_property
    def shadow(self) -> bool:
        return self.program.clear is ClearPolicy.SHADOW

    @cached_property
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


def _dense_column(rows: list) -> list:
    """The value column of ``[(0, v0), (1, v1), ...]`` rows.

    Density is one tuple comparison, not a walk: ``zip`` transposes the
    rows and the index column must equal ``0 .. n-1``.
    """
    if not rows:
        return []
    indices, values = zip(*rows, strict=True)
    if indices != tuple(range(len(indices))):
        raise ValueError(
            "linear tasks must be dense arrays indexed from 0 "
            "(set indexed=True for sparse index addressing)")
    return list(values)


@dataclass
class Task:
    """One data stream handed to a client agent (an RPC call's arguments).

    A task's data has one of two shapes.  Map-addressed and ``indexed``
    tasks hold ``items``, ``(key, value)`` rows with already-quantized
    int32 values.  A dense linear (SyncAgtr) task *is* a value column:
    ``column[i]`` is the value at array index ``i`` and no index is ever
    stored.  The RPC layer builds it with ``column=``; direct callers may
    still hand over ``items=[(0, v0), (1, v1), ...]`` — the rows must be
    dense from 0, are transposed once here and then dropped, so the agent
    sees the same task either way.
    """

    app: AppConfig
    items: list = field(default_factory=list)  # [(key_or_index, int32), ...]
    round: int = 0
    expect_result: bool = True         # the call reads values back
    payload: object = None
    payload_bytes: int = 0
    # Linear apps: False = a dense array indexed from 0 (SyncAgtr
    # gradients); True = sparse integer indices (e.g. one vote counter
    # per consensus instance).
    indexed: bool = False
    task_id: int = field(default_factory=_task_ids.__next__)
    column: Optional[list] = None      # dense linear tasks: [int32, ...]
    size: int = field(init=False)      # kv pairs in the task

    def __post_init__(self):
        if self.app.linear and not self.indexed:
            if self.column is None:
                self.column = _dense_column(self.items)
            elif self.items:
                raise ValueError("give a dense task items or a column, "
                                 "not both")
            self.items = []
            self.size = len(self.column)
            return
        if self.column is not None:
            raise ValueError("only dense linear tasks are value columns")
        if self.app.linear:
            for index, _value in self.items:
                if not isinstance(index, int) or index < 0:
                    raise ValueError("indexed tasks need non-negative "
                                     "integer indices")
        self.size = len(self.items)


class TaskResult:
    """Outcome of a completed task, delivered via the task's done event.

    What a dense linear task read back arrives as ``column`` — one int32
    per array index, 0 where no result packet covered the index — and
    ``values`` derives the ``index -> value`` dict from it on first
    access, so row-style callers read every result the same way.  Every
    other task hands in its ``key -> value`` dict and has no column.
    """

    def __init__(self, task: Task, values: Optional[dict] = None,
                 column: Optional[list] = None, overflow_chunks: int = 0,
                 fallback_pairs: int = 0, mapped_pairs: int = 0,
                 payload: object = None):
        self.task = task
        self.column = column
        self._values = values
        self.overflow_chunks = overflow_chunks  # corrected in software
        self.fallback_pairs = fallback_pairs    # took the server path
        self.mapped_pairs = mapped_pairs        # processed on the switch
        self.payload = payload                  # opaque non-INC reply data

    @property
    def values(self) -> dict:
        """key -> int32 result (empty unless the task expected one)."""
        if self._values is None:
            self._values = dict(enumerate(self.column or ()))
        return self._values

    @property
    def cache_hit_ratio(self) -> float:
        total = self.fallback_pairs + self.mapped_pairs
        return self.mapped_pairs / total if total else 0.0
