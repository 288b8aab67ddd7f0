"""Roofline timing model for individual GPU kernels.

Each kernel is described by a :class:`KernelProfile`: its FLOP count, the
bytes it reads and writes from DRAM, and whether the arithmetic runs on
tensor cores (GEMMs) or CUDA cores (elementwise work).  Runtime is estimated
as the roofline maximum of compute time and memory time plus a fixed launch
latency.  This is the standard first-order model the paper itself uses to
argue that LoRA's projections are memory-bound (Section 3.1, Equation 2).

The rule lives in :class:`Roofline`, one GPU's rates for one dtype read
once; :func:`estimate_kernel_time` binds one per call, and a cost model
that prices thousands of kernels binds one for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.gpu.specs import GPUSpec

__all__ = [
    "KernelProfile",
    "Roofline",
    "arithmetic_intensity",
    "is_memory_bound",
    "estimate_kernel_time",
    "lora_down_projection_intensity",
]


class KernelProfile(NamedTuple):
    """Static cost description of one GPU kernel invocation.

    A ``NamedTuple``: pricing builds tens of thousands per run, and a
    tuple is cheaper to construct than a frozen dataclass.

    Attributes:
        name: Kernel name, e.g. ``"fused_xw_sb"``.
        flops: Floating-point operations performed (multiply-accumulate
            counted as two).
        bytes_read: Bytes loaded from DRAM.
        bytes_written: Bytes stored to DRAM.
        uses_tensor_cores: True for GEMM-like kernels; elementwise kernels
            run on CUDA cores at a much lower peak.
        category: Free-form group label used by runtime-breakdown reports
            (e.g. ``"base_gemm"``, ``"lora_gemm"``, ``"elementwise"``).
        gemm_efficiency_scale: Multiplier on the achievable FLOP rate; used
            to model register-pressure / tiling degradation (e.g. the
            full-fusion ablations of Figure 9).
        mem_efficiency_scale: Multiplier on the achievable bandwidth; used
            to model kernels with poor effective bandwidth such as
            RNG-heavy dropout.
        extra_latency_us: Additional fixed latency (microseconds), e.g.
            inter-block synchronisation semaphores or atomic serialisation.
    """

    name: str
    flops: float
    bytes_read: float
    bytes_written: float
    uses_tensor_cores: bool = True
    category: str = "other"
    gemm_efficiency_scale: float = 1.0
    mem_efficiency_scale: float = 1.0
    extra_latency_us: float = 0.0

    @property
    def bytes_total(self) -> float:
        """Total DRAM traffic (reads + writes) in bytes."""
        return self.bytes_read + self.bytes_written

    def scaled(self, factor: float) -> "KernelProfile":
        """Return a copy with flops and traffic multiplied by ``factor``."""
        return self._replace(
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )


def arithmetic_intensity(profile: KernelProfile) -> float:
    """FLOPs per byte of DRAM traffic for ``profile``.

    Returns ``inf`` for kernels with zero traffic (degenerate, but keeps the
    comparison against machine balance well defined).
    """
    if profile.bytes_total == 0:
        return float("inf")
    return profile.flops / profile.bytes_total


def lora_down_projection_intensity(m: int, n: int, r: int) -> float:
    """Arithmetic intensity of the LoRA down-projection GEMM (Equation 2).

    The paper derives ``I = 1 / (1/r + 1/n + 1/m)`` for the half-precision
    GEMM ``X_hat @ A`` with ``X_hat`` of shape ``(m, k=n)`` and ``A`` of
    shape ``(k, r)``: it reads ``m*k + k*r`` and writes ``m*r`` elements
    (2 bytes each) while performing ``2*m*k*r`` FLOPs.
    """
    return 1.0 / (1.0 / r + 1.0 / n + 1.0 / m)


def is_memory_bound(profile: KernelProfile, gpu: GPUSpec, dtype: str = "fp16") -> bool:
    """Whether ``profile`` sits below the roofline ridge point on ``gpu``."""
    return arithmetic_intensity(profile) < gpu.machine_balance(dtype)


@dataclass(frozen=True)
class Roofline:
    """One GPU's achievable rates for one dtype: the single timing rule.

    Attributes:
        tensor_flops: Tensor-core FLOP/s (GEMMs), derated by the spec's
            ``gemm_efficiency``.
        cuda_flops: CUDA-core FLOP/s (elementwise work), derated alike.
        bandwidth: DRAM bytes/s, derated by ``mem_efficiency``.
        launch_s: Fixed per-kernel launch latency in seconds.
    """

    tensor_flops: float
    cuda_flops: float
    bandwidth: float
    launch_s: float

    @classmethod
    def of(cls, gpu: GPUSpec, dtype: str = "fp16") -> "Roofline":
        """Read ``gpu``'s rates for ``dtype`` (``KeyError`` when the GPU
        has no tensor-core rate for it)."""
        tensor = gpu.peak_flops(dtype) * gpu.gemm_efficiency
        cuda = gpu.cuda_tflops * 1e12 * gpu.gemm_efficiency
        return cls(tensor, cuda, gpu.effective_bandwidth(), gpu.kernel_launch_us * 1e-6)

    def time(self, flops: float, bytes_total: float, uses_tensor_cores: bool = True,
             gemm_efficiency_scale: float = 1.0, mem_efficiency_scale: float = 1.0,
             extra_latency_us: float = 0.0, include_launch: bool = True) -> float:
        """Seconds of one kernel from its raw counts (the
        :class:`KernelProfile` fields of the same names), so a caller
        can price a kernel without building its profile."""
        flop_rate = self.tensor_flops if uses_tensor_cores else self.cuda_flops
        flop_rate *= gemm_efficiency_scale
        compute_time = flops / flop_rate if flops else 0.0
        memory_time = bytes_total / (self.bandwidth * mem_efficiency_scale)
        launch = self.launch_s if include_launch else 0.0
        return max(compute_time, memory_time) + launch + extra_latency_us * 1e-6

    def kernel_time(self, profile: KernelProfile, include_launch: bool = True) -> float:
        """Seconds of one invocation of ``profile``."""
        return self.time(profile.flops, profile.bytes_read + profile.bytes_written,
                         profile.uses_tensor_cores, profile.gemm_efficiency_scale,
                         profile.mem_efficiency_scale, profile.extra_latency_us,
                         include_launch)


def estimate_kernel_time(
    profile: KernelProfile,
    gpu: GPUSpec,
    dtype: str = "fp16",
    include_launch: bool = True,
) -> float:
    """Estimated wall-clock seconds for one invocation of ``profile``.

    The model is ``max(compute_time, memory_time) + launch_latency`` where
    compute time uses the tensor-core rate for GEMMs and the CUDA-core rate
    for elementwise kernels, each derated by the spec's calibrated
    efficiency factors (:class:`Roofline`).
    """
    return Roofline.of(gpu, dtype).kernel_time(profile, include_launch)
