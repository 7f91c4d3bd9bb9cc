"""Wire-level protocol shared by the switch model, host agents, and RPC layer.

Contains the packet format (Figure 14), the RIP program representation
(the compiled NetFilter), 32-bit switch arithmetic with quantization
(§5.2.1), and the ``Stream.modify`` operation set (Appendix A).
"""

from .arith import (
    INT32_MAX,
    INT32_MIN,
    Quantizer,
    is_overflow_sentinel,
    saturating_add,
    wrap32,
)
from .fpcodec import (
    DEFAULT_FMAX_CODEC,
    DEFAULT_FP_CODEC,
    FPCodec,
    OrderedMaxCodec,
)
from .kvblock import KVBlock
from .ops import StreamOp, apply_stream_op
from .packets import (ADDR_BITS, ADDR_MASK, GENERATION_MASK,
                      KV_PAIRS_PER_PACKET, Packet)
from .quantize import Int8BlockCodec, topk_indices
from .rips import (
    AggOp,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
    RetryMode,
    apply,
)

__all__ = [
    "INT32_MAX", "INT32_MIN", "Quantizer", "is_overflow_sentinel",
    "saturating_add", "wrap32",
    "FPCodec", "OrderedMaxCodec", "DEFAULT_FP_CODEC", "DEFAULT_FMAX_CODEC",
    "Int8BlockCodec", "topk_indices",
    "StreamOp", "apply_stream_op",
    "Packet", "KVBlock", "KV_PAIRS_PER_PACKET", "ADDR_BITS", "ADDR_MASK",
    "GENERATION_MASK",
    "RIPProgram", "CntFwdSpec", "ClearPolicy", "ForwardTarget", "RetryMode",
    "AggOp", "apply",
]
