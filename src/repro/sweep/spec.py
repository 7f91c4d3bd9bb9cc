"""Run specifications and structured outcomes for sweep execution.

A :class:`RunSpec` names one independent simulation run as *data*: an
importable callable path, plain-value kwargs, and an optional seed.
Keeping specs pickle-light (strings, numbers, small containers — never
closures, deployments, or simulator objects) is what lets a sweep fan
out over worker processes; anything heavyweight is rebuilt inside the
run from the spec, which is also the determinism contract — each run is
a pure function of (config, seed).
"""

from __future__ import annotations

import importlib
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = ["RunSpec", "RunResult", "RunFailure", "SweepError",
           "resolve_callable"]


class SweepError(RuntimeError):
    """Raised when a sweep whose caller demanded values hit a failure."""


def resolve_callable(path: str) -> Callable:
    """Import ``pkg.module.attr`` (attr may be dotted) to a callable."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ValueError(f"not a dotted callable path: {path!r}")
    obj: Any = importlib.import_module(module_name)
    for name in attr.split("."):
        obj = getattr(obj, name)
    if not callable(obj):
        raise TypeError(f"{path!r} resolved to non-callable {obj!r}")
    return obj


@dataclass(frozen=True)
class RunSpec:
    """One independent run: callable path + kwargs (+ seed, timeout).

    ``seed`` is merged into the kwargs as ``seed=...`` when set, so a
    seed sweep over one config is ``[RunSpec(fn, cfg, seed=s) ...]``.
    ``timeout_s`` is a per-run *wall-clock* budget enforced inside the
    worker by the simulator's wall-deadline guard (see
    ``Simulator.set_wall_deadline``); a run that exceeds it becomes a
    :class:`RunFailure` with ``kind="timeout"``, not a dead sweep.
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    label: str = ""
    timeout_s: Optional[float] = None

    def merged_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def call(self) -> Any:
        """Resolve and invoke the callable (no timeout, no isolation)."""
        return resolve_callable(self.fn)(**self.merged_kwargs())

    def describe(self) -> str:
        return self.label or f"{self.fn}({self.merged_kwargs()!r})"


@dataclass
class RunResult:
    """A completed run, tagged with its spec index for ordered merge."""

    index: int
    value: Any
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return True


@dataclass
class RunFailure:
    """A run that raised, timed out, or took its worker process down.

    ``kind`` is one of ``"error"`` (the callable raised), ``"timeout"``
    (wall-clock budget exceeded), or ``"crash"`` (the worker process
    died — segfault, ``os._exit``, OOM kill).  The sweep always
    completes: a failure occupies the failed spec's slot in the merged
    result list and every other run still runs.
    """

    index: int
    spec: RunSpec
    kind: str
    message: str
    traceback: str = ""
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return False

    def raise_(self) -> None:
        """Re-raise as :class:`SweepError` with the remote traceback."""
        detail = f"\n--- worker traceback ---\n{self.traceback}" \
            if self.traceback else ""
        raise SweepError(
            f"sweep run #{self.index} ({self.spec.describe()}) failed "
            f"[{self.kind}]: {self.message}{detail}")


def format_exception(exc: BaseException) -> str:
    return "".join(_traceback.format_exception(type(exc), exc,
                                               exc.__traceback__))
