"""Distributed ML training on NetRPC (SyncAgtr, paper §6.3 / Figure 6).

A BytePS-style data-parallel training loop: each worker computes a
gradient (modelled as compute time from the DNN profile), pushes it
through the ``Update`` RPC — whose NetFilter aggregates it in-network —
and waits for the aggregated result before the next iteration.

Gradient size is scaled down by ``scale`` (simulating 138M-element
tensors packet-by-packet is infeasible); the compute time is scaled by
the same factor, so the communication/computation ratio — the quantity
Figure 6 actually depends on — is preserved.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control import Deployment
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.inc import Task
from repro.protocol import (
    AggOp,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    Int8BlockCodec,
    RIPProgram,
    topk_indices,
)
from repro.workloads import ModelProfile, synthetic_gradient

__all__ = ["TrainingJob", "TrainingReport", "GRAD_PROTO", "gradient_filter",
           "ConvergenceJob", "ConvergenceReport", "CONVERGENCE_MODES"]

GRAD_PROTO = """
import "netrpc.proto";
message NewGrad { netrpc.FPArray tensor = 1; }
message AgtrGrad { netrpc.FPArray tensor = 1; }
service GradientService {
  rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
}
"""


def gradient_filter(n_workers: int, clear: str = "copy",
                    precision: int = 6, agg: str = "add") -> str:
    """The paper's Figure 3 NetFilter, parameterised.

    ``agg`` selects the aggregation operator ("add", "fadd", "fmax",
    "qadd", "topk"); fp operators require ``precision=0`` — they carry
    their own codec.
    """
    return f"""{{
      "AppName": "DT-1",
      "Precision": {precision},
      "get": "AgtrGrad.tensor",
      "addTo": "NewGrad.tensor",
      "clear": "{clear}",
      "modify": "nop",
      "agg": "{agg}",
      "CntFwd": {{"to": "ALL", "threshold": {n_workers},
                  "key": "ClientID"}}
    }}"""


@dataclass
class TrainingReport:
    """Result of a training run."""

    model: str
    iterations: int
    elapsed_s: float
    samples_per_iteration: int
    scale: int

    @property
    def images_per_second(self) -> float:
        """Average per-worker training speed (Figure 6's metric)."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.iterations * self.samples_per_iteration / self.elapsed_s


class TrainingJob:
    """Drives synchronous data-parallel training over a deployment."""

    def __init__(self, deployment: Deployment, model: ModelProfile,
                 workers: Optional[List[str]] = None, server: str = "s0",
                 scale: int = 2000, clear: str = "copy",
                 value_slots: int = 65536, counter_slots: int = 4096):
        self.deployment = deployment
        self.model = model
        self.workers = workers or deployment.client_names
        self.scale = scale
        self.grad_len = max(32, (model.parameters // scale) // 32 * 32)
        self.compute_s = model.compute_s / scale * \
            (self.grad_len / (model.parameters / scale))
        service = NetRPCService.from_text(
            GRAD_PROTO, "GradientService",
            {"agtr.nf": gradient_filter(len(self.workers), clear=clear)})
        self.registered = register_service(
            deployment, service, server=server, clients=self.workers,
            value_slots=value_slots, counter_slots=counter_slots)
        self.server_stub = ServerStub(self.registered)
        self._stubs = {w: Channel(self.registered, w).stub()
                       for w in self.workers}
        self.iterations_done: Dict[str, int] = {w: 0 for w in self.workers}

    # ------------------------------------------------------------------
    def _worker_process(self, worker: str, iterations: int):
        sim = self.deployment.sim
        stub = self._stubs[worker]
        request_type = self.registered.binding("Update").request
        # crc32, not hash(): str hashes change per process unless
        # PYTHONHASHSEED is pinned, and gradients must be reproducible.
        gradient = synthetic_gradient(self.grad_len,
                                      seed=zlib.crc32(worker.encode()))
        for iteration in range(iterations):
            yield sim.timeout(self.compute_s)   # forward + backward pass
            request = request_type(tensor=gradient)
            reply_event = stub.call_async("Update", request,
                                          round=iteration)
            yield reply_event                   # wait for the aggregate
            self.iterations_done[worker] += 1

    def run(self, iterations: int = 10, limit: float = 300.0
            ) -> TrainingReport:
        """Run ``iterations`` synchronous rounds; returns the report."""
        sim = self.deployment.sim
        start = sim.now
        processes = [sim.process(self._worker_process(w, iterations),
                                 name=f"train-{w}")
                     for w in self.workers]
        done = sim.all_of(processes)
        sim.run_until(done, limit=start + limit)
        elapsed = sim.now - start
        # Normalise speed back to full-model scale: one simulated
        # iteration trains `samples_per_iteration` images in
        # elapsed/iterations of *scaled* time.
        return TrainingReport(
            model=self.model.name, iterations=iterations,
            elapsed_s=elapsed * self.scale *
            (self.model.parameters / self.scale) / self.grad_len,
            samples_per_iteration=self.model.samples_per_iteration,
            scale=self.scale)


# ---------------------------------------------------------------------------
# Seeded convergence trajectories: fp / quantized INC vs exact reduction
# ---------------------------------------------------------------------------

#: "exact" is the host-side float64 all-reduce reference; the other
#: three run the real deployment with the corresponding aggregation op.
CONVERGENCE_MODES = ("exact", "fp", "int8", "topk")


@dataclass
class ConvergenceReport:
    """Loss trajectory of one seeded convergence run."""

    mode: str
    workers: int
    dim: int
    seed: int
    losses: List[float]
    overflow_chunks: int = 0


def _make_dataset(dim: int, workers: int, samples: int, seed: int
                  ) -> List[Tuple[list, list]]:
    """Deterministic linear-regression shards: one (X, y) per worker."""
    rng = random.Random(seed)
    w_true = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    shards = []
    for worker in range(workers):
        wrng = random.Random(seed * 7919 + worker)
        xs = [[wrng.gauss(0.0, 1.0) for _ in range(dim)]
              for _ in range(samples)]
        ys = [sum(a * b for a, b in zip(x, w_true)) + wrng.gauss(0.0, 0.01)
              for x in xs]
        shards.append((xs, ys))
    return shards


def _shard_gradient(weights: Sequence[float], xs: list, ys: list
                    ) -> List[float]:
    """Full-batch MSE gradient of one worker's shard."""
    n = len(xs)
    dim = len(weights)
    grad = [0.0] * dim
    for x, y in zip(xs, ys):
        err = sum(a * b for a, b in zip(x, weights)) - y
        step = 2.0 * err / n
        for j in range(dim):
            grad[j] += step * x[j]
    return grad


def _global_loss(weights: Sequence[float], shards: list) -> float:
    total = 0.0
    count = 0
    for xs, ys in shards:
        for x, y in zip(xs, ys):
            err = sum(a * b for a, b in zip(x, weights)) - y
            total += err * err
            count += 1
    return total / count


class ConvergenceJob:
    """Seeded SGD whose gradient all-reduce runs through the INC path.

    Four modes (:data:`CONVERGENCE_MODES`):

    * ``exact`` — host-side float64 reduction, no network: the reference
      the differential tests compare everything against;
    * ``fp`` — table-float INC (``agg=fadd``): workers push fp ordered
      encodings, the switch runs the NetFC-style lookup-table add;
    * ``int8`` — block-quantized INC (``agg=qadd``): workers quantize to
      int8 codes under a shared per-round scale (in a real deployment a
      scalar all-reduce precedes the tensor push; here the harness
      computes it), the switch saturating-adds the codes;
    * ``topk`` — coordinated sparse INC (``agg=topk``): every worker
      sends the same k coordinates — ranked on the *previous* round's
      aggregate, so selection is data-driven yet identical across
      workers — and the switch dense-merges them.

    All workers apply the identical broadcast aggregate, so weights
    never diverge across workers and the trajectory is a single loss
    curve.  Everything is seeded: same seed => bit-identical trajectory.
    """

    def __init__(self, deployment: Optional[Deployment], mode: str,
                 workers: int = 2, dim: int = 64, samples: int = 16,
                 seed: int = 7, lr: float = 0.05, topk: int = 16,
                 value_slots: int = 2048, counter_slots: int = 256):
        if mode not in CONVERGENCE_MODES:
            raise ValueError(f"unknown convergence mode {mode!r}; "
                             f"expected one of {CONVERGENCE_MODES}")
        if mode != "exact" and deployment is None:
            raise ValueError(f"mode {mode!r} needs a deployment")
        self.mode = mode
        self.workers = workers
        self.dim = dim
        self.seed = seed
        self.lr = lr
        self.topk = min(topk, dim)
        self.deployment = deployment
        self.shards = _make_dataset(dim, workers, samples, seed)
        self.overflow_chunks = 0
        self._int8 = Int8BlockCodec()
        self.config = None
        if mode != "exact":
            agg = {"fp": AggOp.FADD, "int8": AggOp.QADD,
                   "topk": AggOp.TOPK}[mode]
            program = RIPProgram(
                app_name=f"CONV-{mode}",
                precision=0 if agg.is_float else 6,
                get_field="AgtrGrad.tensor", add_to_field="NewGrad.tensor",
                clear=ClearPolicy.COPY, agg=agg,
                cntfwd=CntFwdSpec(target=ForwardTarget.ALL,
                                  threshold=workers))
            (self.config,) = deployment.controller.register(
                [program], server=deployment.server_name,
                clients=deployment.client_names[:workers],
                value_slots=value_slots, counter_slots=counter_slots,
                linear=True)

    # ------------------------------------------------------------------
    def _reduce_exact(self, grads: List[List[float]]) -> List[float]:
        return [sum(col) for col in zip(*grads)]

    def _reduce_inc(self, grads: List[List[float]], round_no: int,
                    prev_agg: List[float]) -> List[float]:
        """Push one gradient per worker through the deployment and
        decode the switch's broadcast aggregate."""
        deployment = self.deployment
        config = self.config
        codec = config.program.codec
        indexed = False
        if self.mode == "fp":
            per_worker = [[(j, codec.encode(g[j])[0])
                           for j in range(self.dim)] for g in grads]
            decode = codec.decode
            scale = None
        elif self.mode == "int8":
            # Shared clip scale: max|g| over every worker this round.
            peak = max((max(abs(v) for v in g) for g in grads), default=0.0)
            scale = peak / 127  # underflows to 0.0 for denormal peaks
            if scale <= 0:
                scale = 1.0
            per_worker = []
            for g in grads:
                _s, codes = self._int8.encode_block(g, scale=scale)
                per_worker.append(list(enumerate(codes)))
            decode = None
        else:  # topk: coordinated selection on the previous aggregate
            if round_no == 0 or not any(prev_agg):
                selected = list(range(self.topk))
            else:
                selected = topk_indices(prev_agg, self.topk)
            per_worker = [[(j, codec.encode(g[j])[0]) for j in selected]
                          for g in grads]
            decode = codec.decode
            indexed = True
            scale = None
        sim = deployment.sim
        start = sim.now
        events = [
            deployment.client_agent(w).submit(
                Task(app=config, round=round_no, items=per_worker[w],
                     expect_result=True, indexed=indexed))
            for w in range(self.workers)]
        results = [sim.run_until(e, limit=start + 5.0) for e in events]
        self.overflow_chunks += sum(r.overflow_chunks for r in results)
        # Settle: let clears/ACKs drain so the next round starts clean.
        sim.run(until=sim.now + 1e-4)
        values = results[0].values
        if self.mode == "int8":
            codes = [values.get(j, 0) for j in range(self.dim)]
            return self._int8.decode_block(scale, codes)
        return [decode(values[j]) if j in values else 0.0
                for j in range(self.dim)]

    # ------------------------------------------------------------------
    def run(self, rounds: int = 12) -> ConvergenceReport:
        weights = [0.0] * self.dim
        losses = [_global_loss(weights, self.shards)]
        prev_agg = [0.0] * self.dim
        for round_no in range(rounds):
            grads = [_shard_gradient(weights, xs, ys)
                     for xs, ys in self.shards]
            if self.mode == "exact":
                agg = self._reduce_exact(grads)
            else:
                agg = self._reduce_inc(grads, round_no, prev_agg)
            prev_agg = agg
            step = self.lr / self.workers
            for j in range(self.dim):
                weights[j] -= step * agg[j]
            losses.append(_global_loss(weights, self.shards))
        return ConvergenceReport(
            mode=self.mode, workers=self.workers, dim=self.dim,
            seed=self.seed, losses=losses,
            overflow_chunks=self.overflow_chunks)
