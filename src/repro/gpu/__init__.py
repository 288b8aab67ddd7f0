"""GPU performance substrate: device specs, roofline model, kernel timeline.

This subpackage replaces the paper's physical H100/L40S testbed with an
analytical model (see DESIGN.md, "Hardware substitution").
"""

from repro.gpu.kernelsim import KernelTimeline, TimedKernel, simulate_kernel_sequence
from repro.gpu.roofline import (
    KernelProfile,
    Roofline,
    arithmetic_intensity,
    estimate_kernel_time,
    is_memory_bound,
    lora_down_projection_intensity,
)
from repro.gpu.specs import (
    A100_PCIE,
    A100_SXM,
    BYTES_PER_ELEMENT,
    H100,
    L40S,
    RTX3090,
    GPUSpec,
    get_gpu,
    list_gpus,
)

__all__ = [
    "A100_PCIE",
    "A100_SXM",
    "BYTES_PER_ELEMENT",
    "H100",
    "L40S",
    "RTX3090",
    "GPUSpec",
    "KernelProfile",
    "KernelTimeline",
    "Roofline",
    "TimedKernel",
    "arithmetic_intensity",
    "estimate_kernel_time",
    "get_gpu",
    "is_memory_bound",
    "list_gpus",
    "lora_down_projection_intensity",
    "simulate_kernel_sequence",
]
