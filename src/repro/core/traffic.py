"""Analytical DRAM-traffic and kernel-profile model for LoRA strategies.

For every kernel strategy the paper discusses, this module produces the list
of :class:`~repro.gpu.roofline.KernelProfile` records that a forward or
backward pass launches, with the bytes each kernel moves through DRAM.
Feeding the profiles to the roofline model yields the runtimes behind
Figures 3, 4, 17 and 18; summing traffic yields Figure 19 and the 2.64x
claim of Section 3.1.

Strategies:

``frozen``
    The plain frozen linear layer (no adapter): one GEMM each direction.
``torch``
    Unfused "Torch LoRA" (PEFT-style): one kernel per op (Figure 4).
``compile``
    ``torch.compile``: identical kernel set (pointwise ops cannot fuse into
    the cuBLAS GEMMs), minus a little launch overhead in backward from CUDA
    graphs -- reproducing the paper's "zero benefit forward, negligible
    backward" observation.
``fused``
    FusedLoRA split-graph plan (Figure 10).
``fused_multi``
    FusedMultiLoRA with tile routing (Figure 11): forward matches ``fused``
    up to adapter-table loads; backward adds atomic gradient accumulation.
``full_fusion_recompute`` / ``full_fusion_sync``
    The two rejected designs of Figure 9 (forward only), used by ablation
    benches to show why the split-graph choice wins.

Traffic accounting notes:

* GEMM operand reloads: a GEMM ``C[M,N] = A[M,K] @ B[K,N]`` streams each
  operand from DRAM once per L2-resident pass over the opposite dimension.
  We model passes of :data:`L2_PASS_ROWS` rows; operands smaller than
  :data:`L2_RESIDENT_BYTES` stay cached and are read once.  This matches
  NCU-measured traffic for large GEMMs far better than minimal counts.
* Dropout masks are stored as one byte per element (PyTorch bool masks).
* The forward dropout kernel runs well below peak bandwidth because of
  Philox RNG overhead (:data:`DROPOUT_RNG_EFFICIENCY`), which is why the
  paper's Figure 4 shows dropout at 19% of forward time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import KernelConfigError
from repro.gpu.roofline import KernelProfile
from repro.gpu.specs import BYTES_PER_ELEMENT

__all__ = [
    "LoRAShape",
    "STRATEGIES",
    "L2_PASS_ROWS",
    "L2_RESIDENT_BYTES",
    "DROPOUT_RNG_EFFICIENCY",
    "gemm_profile",
    "lora_profiles",
    "total_traffic",
    "traffic_ratio",
]

#: Rows per L2-resident GEMM pass (panel height before operands re-stream).
L2_PASS_ROWS = 2048

#: Operands smaller than this stay resident in L2 and are read once.
L2_RESIDENT_BYTES = 25 * 1024 * 1024

#: Effective-bandwidth scale of the RNG-heavy forward dropout kernel.
DROPOUT_RNG_EFFICIENCY = 0.55

#: Tiling degradation of the Figure 9 "option 1" fully-fused kernel.
FULL_FUSION_RECOMPUTE_EFF = 0.90

#: Tiling degradation of the Figure 9 "option 2" synchronising kernel.
FULL_FUSION_SYNC_EFF = 0.85

#: Per-M-tile semaphore wait of the Figure 9 "option 2" kernel (us).
FULL_FUSION_SYNC_US_PER_TILE = 0.5

#: Per-M-tile atomic serialisation in the FusedMultiLoRA backward (us).
MULTI_ATOMIC_US_PER_TILE = 0.25

#: N-tile width assumed for the Figure 9 "option 1" recompute analysis.
RECOMPUTE_BLOCK_N = 64

STRATEGIES = (
    "frozen",
    "torch",
    "compile",
    "fused",
    "fused_multi",
)


@dataclass(frozen=True)
class LoRAShape:
    """Problem shape of one LoRA linear layer invocation (Table 1).

    Attributes:
        m: Number of tokens (batch size x sequence length).
        k: Input feature dimension.
        n: Output feature dimension.
        r: LoRA rank.
        dtype: Storage dtype of activations and weights.
        dropout: Whether the adapter applies dropout (affects kernel count).
        num_adapters: Distinct adapters in the microbatch (multi-LoRA only).
        block_m: M-tile height used by the fused kernels.
    """

    m: int
    k: int
    n: int
    r: int = 16
    dtype: str = "fp16"
    dropout: bool = True
    num_adapters: int = 1
    block_m: int = 64

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.r) <= 0:
            raise KernelConfigError(f"all shape dims must be positive: {self}")
        if self.dtype not in BYTES_PER_ELEMENT:
            raise KernelConfigError(f"unknown dtype {self.dtype!r}")

    @property
    def elem_bytes(self) -> int:
        """Bytes per activation/weight element."""
        return BYTES_PER_ELEMENT[self.dtype]

    @property
    def num_tiles(self) -> int:
        """Number of M-tiles at ``block_m`` granularity."""
        return math.ceil(self.m / self.block_m)


def _reload_factor(operand_bytes: float, opposite_dim: int) -> int:
    """How many times a GEMM operand streams from DRAM.

    Small operands stay L2-resident (one read).  Large operands are re-read
    once per :data:`L2_PASS_ROWS`-row pass over the opposite output
    dimension.
    """
    if operand_bytes <= L2_RESIDENT_BYTES:
        return 1
    return max(1, math.ceil(opposite_dim / L2_PASS_ROWS))


def gemm_profile(
    name: str,
    m: int,
    k: int,
    n: int,
    elem_bytes: int,
    category: str,
    extra_read: float = 0.0,
    extra_write: float = 0.0,
    extra_flops: float = 0.0,
    gemm_efficiency_scale: float = 1.0,
    extra_latency_us: float = 0.0,
) -> KernelProfile:
    """Profile of a GEMM ``C[m,n] = A[m,k] @ B[k,n]`` with optional epilogue.

    ``extra_*`` fold fused epilogue/prologue costs (e.g. the LoRA branch of
    ``fused_xw_sb``) into the same kernel.
    """
    a_bytes = m * k * elem_bytes
    b_bytes = k * n * elem_bytes
    reads = (
        a_bytes * _reload_factor(a_bytes, n)
        + b_bytes * _reload_factor(b_bytes, m)
        + extra_read
    )
    writes = m * n * elem_bytes + extra_write
    return KernelProfile(
        name=name,
        flops=2.0 * m * k * n + extra_flops,
        bytes_read=reads,
        bytes_written=writes,
        uses_tensor_cores=True,
        category=category,
        gemm_efficiency_scale=gemm_efficiency_scale,
        extra_latency_us=extra_latency_us,
    )


def _elementwise(
    name: str,
    bytes_read: float,
    bytes_written: float,
    flops: float,
    mem_efficiency_scale: float = 1.0,
) -> KernelProfile:
    """Profile of a pointwise kernel (runs on CUDA cores)."""
    return KernelProfile(
        name=name,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        uses_tensor_cores=False,
        category="elementwise",
        mem_efficiency_scale=mem_efficiency_scale,
    )


# ---------------------------------------------------------------------------
# Frozen linear (no adapter)
# ---------------------------------------------------------------------------


def _frozen_forward(s: LoRAShape) -> list[KernelProfile]:
    return [gemm_profile("gemm_xw", s.m, s.k, s.n, s.elem_bytes, "base_gemm")]


def _frozen_backward(s: LoRAShape) -> list[KernelProfile]:
    # dX = dY @ W.T -- same cost structure as the forward GEMM.
    return [gemm_profile("gemm_dy_w", s.m, s.n, s.k, s.elem_bytes, "base_gemm")]


# ---------------------------------------------------------------------------
# Unfused "Torch LoRA"
# ---------------------------------------------------------------------------


def _torch_forward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    mk, mn = s.m * s.k * e, s.m * s.n * e
    profiles: list[KernelProfile] = []
    if s.dropout:
        profiles.append(
            _elementwise(
                "dropout",
                bytes_read=mk,
                bytes_written=mk + s.m * s.k,  # X_hat + bool mask
                flops=3.0 * s.m * s.k,
                mem_efficiency_scale=DROPOUT_RNG_EFFICIENCY,
            )
        )
    profiles.append(gemm_profile("gemm_xw", s.m, s.k, s.n, e, "base_gemm"))
    profiles.append(gemm_profile("gemm_xa", s.m, s.k, s.r, e, "lora_gemm"))
    profiles.append(gemm_profile("gemm_sb", s.m, s.r, s.n, e, "lora_gemm"))
    # Y = Y1 + alpha * Y2: reads both partials, writes the output.
    profiles.append(
        _elementwise(
            "muladd", bytes_read=2 * mn, bytes_written=mn, flops=2.0 * s.m * s.n
        )
    )
    return profiles


def _torch_backward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    mk, mn = s.m * s.k * e, s.m * s.n * e
    mask = s.m * s.k if s.dropout else 0
    profiles = [
        # dY_hat = alpha * dY
        _elementwise("mul", bytes_read=mn, bytes_written=mn, flops=s.m * s.n),
        gemm_profile("gemm_s_dy", s.r, s.m, s.n, e, "lora_gemm"),  # dB
        gemm_profile("gemm_dy_b", s.m, s.n, s.r, e, "lora_gemm"),  # dS
        gemm_profile("gemm_x_ds", s.k, s.m, s.r, e, "lora_gemm"),  # dA
        gemm_profile("gemm_ds_a", s.m, s.r, s.k, e, "lora_gemm"),  # dX_hat
        gemm_profile("gemm_dy_w", s.m, s.n, s.k, e, "base_gemm"),  # dX partial
    ]
    # Dropout backward accumulating into the base input gradient in place:
    # reads dX_hat, the mask and the partial dX, writes dX.
    profiles.append(
        _elementwise(
            "dropout_bwd_add",
            bytes_read=2 * mk + mask,
            bytes_written=mk,
            flops=2.0 * s.m * s.k,
        )
    )
    return profiles


def _compile_backward(s: LoRAShape) -> list[KernelProfile]:
    # torch.compile cannot fuse pointwise ops into the cuBLAS GEMMs; its only
    # measurable backward effect here is CUDA-graph launch elision, modelled
    # as negative extra latency on the cheap LoRA GEMMs.
    profiles = _torch_backward(s)
    elided = 0
    result = []
    for profile in profiles:
        if profile.category == "lora_gemm" and elided < 3:
            result.append(
                KernelProfile(
                    name=profile.name,
                    flops=profile.flops,
                    bytes_read=profile.bytes_read,
                    bytes_written=profile.bytes_written,
                    uses_tensor_cores=profile.uses_tensor_cores,
                    category=profile.category,
                    extra_latency_us=-3.0,
                )
            )
            elided += 1
        else:
            result.append(profile)
    return result


# ---------------------------------------------------------------------------
# FusedLoRA (split-graph plan, Figure 10)
# ---------------------------------------------------------------------------


def _fused_forward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    mk = s.m * s.k * e
    mr = s.m * s.r * e
    kr = s.k * s.r * e
    rn = s.r * s.n * e
    mask = s.m * s.k if s.dropout else 0
    # Kernel 1: dropout + down-projection in one pass over X.
    kernel1 = KernelProfile(
        name="fused_dropout_matmul",
        flops=2.0 * s.m * s.k * s.r + (3.0 * s.m * s.k if s.dropout else 0.0),
        bytes_read=mk + kr,
        bytes_written=(mk if s.dropout else 0) + mask + mr,
        uses_tensor_cores=True,
        category="lora_fused",
        mem_efficiency_scale=DROPOUT_RNG_EFFICIENCY if s.dropout else 1.0,
    )
    # Kernel 2: base GEMM with the up-projection in the epilogue.
    kernel2 = gemm_profile(
        "fused_xw_sb",
        s.m,
        s.k,
        s.n,
        e,
        "base_gemm",
        extra_read=mr + rn,
        extra_flops=2.0 * s.m * s.r * s.n + 2.0 * s.m * s.n,
    )
    return [kernel1, kernel2]


def _fused_backward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    mk = s.m * s.k * e
    mn = s.m * s.n * e
    mr = s.m * s.r * e
    kr = s.k * s.r * e
    rn = s.r * s.n * e
    mask = s.m * s.k if s.dropout else 0
    # Kernel 3: one pass over dY producing dB and dS.
    kernel3 = KernelProfile(
        name="fused_dys_dyb",
        flops=4.0 * s.m * s.r * s.n + s.m * s.n,
        bytes_read=mn + mr + rn,
        bytes_written=rn + mr,
        uses_tensor_cores=True,
        category="lora_fused",
    )
    # Kernel 4: dA = X_hat.T @ dS (unchanged).
    kernel4 = gemm_profile("matmul_da", s.k, s.m, s.r, e, "lora_gemm")
    # Kernel 5: dX = dY @ W.T + dropout_bwd(dS @ A.T) in the epilogue.
    kernel5 = gemm_profile(
        "fused_dyw_dsa",
        s.m,
        s.n,
        s.k,
        e,
        "base_gemm",
        extra_read=mr + kr + mask,
        extra_flops=2.0 * s.m * s.k * s.r + 2.0 * s.m * s.k,
    )
    return [kernel3, kernel4, kernel5]


# ---------------------------------------------------------------------------
# FusedMultiLoRA (tile routing, Figure 11)
# ---------------------------------------------------------------------------


def _multi_forward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    kernel1, kernel2 = _fused_forward(s)
    # Adapter table (8B per tile) plus per-adapter weight loads beyond the
    # single-adapter case; adapter weights are rank-sized so this is small.
    extra_weights = (s.num_adapters - 1) * (s.k * s.r + s.r * s.n) * e
    table = 8 * s.num_tiles
    kernel1 = KernelProfile(
        name="fused_multi_lora_dropout_matmul",
        flops=kernel1.flops,
        bytes_read=kernel1.bytes_read + extra_weights / 2 + table,
        bytes_written=kernel1.bytes_written,
        uses_tensor_cores=True,
        category="lora_fused",
        mem_efficiency_scale=kernel1.mem_efficiency_scale,
    )
    kernel2 = KernelProfile(
        name="fused_multi_lora_xw_sb",
        flops=kernel2.flops,
        bytes_read=kernel2.bytes_read + extra_weights / 2 + table,
        bytes_written=kernel2.bytes_written,
        uses_tensor_cores=True,
        category="base_gemm",
    )
    return [kernel1, kernel2]


def _multi_backward(s: LoRAShape) -> list[KernelProfile]:
    e = s.elem_bytes
    kernel3, kernel4, kernel5 = _fused_backward(s)
    # Atomic read-modify-write gradient accumulation and per-adapter weight
    # loads: the "slight overhead" of Section 6.4.  Most atomics land in L2,
    # so the DRAM-visible traffic is capped; the serialisation cost appears
    # as extra latency instead (which is why Figure 19 shows FusedMultiLoRA
    # traffic nearly equal to FusedLoRA while its backward is a bit slower).
    tiles = s.num_tiles
    per_tile_weights = s.num_adapters * (s.k * s.r + s.r * s.n) * e
    grad_bytes = (s.k * s.r + s.r * s.n) * e
    atomic_rmw = min(tiles, 32) * grad_bytes * 2
    kernel3 = KernelProfile(
        name="fused_multi_lora_dys_dyb",
        flops=kernel3.flops + s.m * s.r,
        bytes_read=kernel3.bytes_read + per_tile_weights / 2,
        bytes_written=kernel3.bytes_written + atomic_rmw / 2,
        uses_tensor_cores=True,
        category="lora_fused",
        extra_latency_us=MULTI_ATOMIC_US_PER_TILE * tiles / 2,
    )
    kernel4 = KernelProfile(
        name="multi_matmul_da",
        flops=kernel4.flops,
        bytes_read=kernel4.bytes_read,
        bytes_written=kernel4.bytes_written + atomic_rmw / 2,
        uses_tensor_cores=True,
        category="lora_gemm",
        extra_latency_us=MULTI_ATOMIC_US_PER_TILE * tiles / 2,
    )
    kernel5 = KernelProfile(
        name="fused_multi_lora_dyw_dsa",
        flops=kernel5.flops,
        bytes_read=kernel5.bytes_read + per_tile_weights / 2,
        bytes_written=kernel5.bytes_written,
        uses_tensor_cores=True,
        category="base_gemm",
    )
    return [kernel3, kernel4, kernel5]


# ---------------------------------------------------------------------------
# Figure 9 rejected designs (forward only; used by ablations)
# ---------------------------------------------------------------------------


def full_fusion_recompute_forward(s: LoRAShape) -> list[KernelProfile]:
    """Option 1 of Figure 9: fuse everything, recompute S per N-tile.

    Every N-tile of the output recomputes its S tile, multiplying the
    down-projection FLOPs by ``n / RECOMPUTE_BLOCK_N``, and the whole kernel
    pays a tiling/register penalty on the base GEMM.
    """
    e = s.elem_bytes
    mk = s.m * s.k * e
    mask = s.m * s.k if s.dropout else 0
    recompute_factor = max(1, s.n // RECOMPUTE_BLOCK_N)
    return [
        gemm_profile(
            "full_fusion_recompute",
            s.m,
            s.k,
            s.n,
            e,
            "base_gemm",
            extra_read=(s.k * s.r + s.r * s.n) * e,
            extra_write=mk + mask,
            extra_flops=2.0 * s.m * s.k * s.r * recompute_factor
            + 2.0 * s.m * s.r * s.n
            + 3.0 * s.m * s.k,
            gemm_efficiency_scale=FULL_FUSION_RECOMPUTE_EFF,
        )
    ]


def full_fusion_sync_forward(s: LoRAShape) -> list[KernelProfile]:
    """Option 2 of Figure 9: fuse everything, share S via semaphores.

    One M-tile computes each S tile and the rest wait, adding per-tile
    synchronisation latency on top of a tiling/register penalty.
    """
    e = s.elem_bytes
    mk = s.m * s.k * e
    mr = s.m * s.r * e
    mask = s.m * s.k if s.dropout else 0
    return [
        gemm_profile(
            "full_fusion_sync",
            s.m,
            s.k,
            s.n,
            e,
            "base_gemm",
            extra_read=(s.k * s.r + s.r * s.n) * e + mr,
            extra_write=mk + mask + mr,
            extra_flops=2.0 * s.m * s.k * s.r + 2.0 * s.m * s.r * s.n + 3.0 * s.m * s.k,
            gemm_efficiency_scale=FULL_FUSION_SYNC_EFF,
            extra_latency_us=FULL_FUSION_SYNC_US_PER_TILE * s.num_tiles,
        )
    ]


_FORWARD = {
    "frozen": _frozen_forward,
    "torch": _torch_forward,
    "compile": _torch_forward,  # zero forward benefit (Section 3.1)
    "fused": _fused_forward,
    "fused_multi": _multi_forward,
}

_BACKWARD = {
    "frozen": _frozen_backward,
    "torch": _torch_backward,
    "compile": _compile_backward,
    "fused": _fused_backward,
    "fused_multi": _multi_backward,
}


def lora_profiles(
    strategy: str, direction: str, shape: LoRAShape
) -> list[KernelProfile]:
    """Kernel profiles for one pass of ``strategy`` over ``shape``.

    Args:
        strategy: One of :data:`STRATEGIES`.
        direction: ``"forward"`` or ``"backward"``.
        shape: Problem shape.
    """
    try:
        table = {"forward": _FORWARD, "backward": _BACKWARD}[direction]
    except KeyError as exc:
        raise KernelConfigError(
            f"direction must be 'forward' or 'backward', got {direction!r}"
        ) from exc
    try:
        return table[strategy](shape)
    except KeyError as exc:
        raise KernelConfigError(
            f"unknown strategy {strategy!r}; known: {sorted(table)}"
        ) from exc


def total_traffic(profiles: list[KernelProfile]) -> float:
    """Total DRAM bytes moved by a list of kernel profiles."""
    return sum(p.bytes_total for p in profiles)


def traffic_ratio(strategy: str, baseline: str, shape: LoRAShape) -> float:
    """Forward+backward traffic of ``strategy`` relative to ``baseline``.

    This is the quantity NVIDIA Nsight Compute reports in Figure 19
    (e.g. FusedLoRA moves ~0.5-0.6x the DRAM bytes of Torch LoRA).
    """
    num = sum(
        total_traffic(lora_profiles(strategy, d, shape))
        for d in ("forward", "backward")
    )
    den = sum(
        total_traffic(lora_profiles(baseline, d, shape))
        for d in ("forward", "backward")
    )
    return num / den
