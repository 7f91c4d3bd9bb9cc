"""Approximate aggregation codecs: int8 block quantization and top-k.

Two lossy gradient-compression modes that ride the *integer* switch
kernels (no new dataplane arithmetic needed — the loss is taken host
side, the switch still does exact saturating int adds):

* **Int8 block quantization** — a block of floats is scaled by a single
  per-block factor, rounded to signed 8-bit codes, and the codes are
  what the switch accumulates.  With ``W`` workers the accumulated code
  stays within ``W * 127`` — far from 32-bit saturation — and decoding
  multiplies by the shared scale.  For cross-worker aggregation all
  workers must use the *same* scale (otherwise the switch would add
  incommensurate units), so the INC path uses a shared clip-derived
  scale; the per-block ``scale=None`` form serves single-party storage.
  Round-trip error is at most ``scale / 2`` per value per contribution.

* **Top-k sparsification** — each worker sends only ``k`` coordinates
  and the switch dense-merges them into the value region.  For the
  merged result to equal the dense aggregate *on the selected
  coordinates*, all workers must pick the same coordinate set
  (coordinated top-k, as in sparse all-reduce systems); the convergence
  harness selects against the previous round's aggregate so selection
  is data-driven yet identical across workers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["Int8BlockCodec", "topk_indices"]

INT8_MAX = 127
INT8_MIN = -127  # symmetric range so negation round-trips


class Int8BlockCodec:
    """Block quantizer: floats -> signed int8 codes under one scale."""

    def encode_block(self, values: Sequence[float],
                     scale: Optional[float] = None,
                     ) -> Tuple[float, List[int]]:
        """Quantize ``values``; returns ``(scale, codes)``.

        With ``scale=None`` the per-block scale ``max|v| / 127`` is
        derived (exact representation of the extreme value); an explicit
        ``scale`` is clamped to — i.e. codes saturate at ±127, which is
        the clipping behaviour distributed trainers rely on.
        """
        if scale is None:
            peak = max((abs(float(v)) for v in values), default=0.0)
            # peak / 127 underflows to 0.0 for denormal peaks; unit
            # scale keeps the scale/2 error bound trivially valid there.
            scale = peak / INT8_MAX
            if scale <= 0:
                scale = 1.0
        elif scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        codes = []
        for v in values:
            q = round(float(v) / scale)
            if q > INT8_MAX:
                q = INT8_MAX
            elif q < INT8_MIN:
                q = INT8_MIN
            codes.append(q)
        return scale, codes

    def decode_block(self, scale: float, codes: Sequence[int]) -> List[float]:
        """Codes (possibly switch-accumulated, so beyond ±127) -> floats."""
        return [c * scale for c in codes]

    def error_bound(self, scale: float, contributions: int = 1) -> float:
        """Worst-case per-value round-trip error for in-range inputs:
        half a quantization step per contributing worker."""
        return contributions * scale / 2


def topk_indices(values: Sequence[float], k: int) -> List[int]:
    """Indices of the k largest-magnitude entries, ascending order.

    Ties break toward the lower index — deterministic, so coordinated
    selection (every worker ranking the same reference vector) yields
    the same set everywhere.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k >= len(values):
        return list(range(len(values)))
    ranked = sorted(range(len(values)),
                    key=lambda i: (-abs(float(values[i])), i))
    return sorted(ranked[:k])


