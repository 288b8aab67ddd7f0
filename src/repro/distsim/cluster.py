"""Cluster description for the distributed-training simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.gpu.specs import GPUSpec

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster.

    Attributes:
        gpu: Device type of every GPU.
        num_gpus: Total GPUs.
        gpus_per_node: GPUs sharing the fast intra-node interconnect
            (NVLink on H100 nodes, PCIe on L40S servers).
        collective_efficiency: Achieved fraction of the link's peak
            bandwidth for NCCL collectives (ring algorithm bandwidth plus
            protocol overhead; ~0.45 is typical for all-gather on a
            4-8 GPU NVLink group).
    """

    gpu: GPUSpec
    num_gpus: int
    gpus_per_node: int = 8
    collective_efficiency: float = 0.45

    def __post_init__(self) -> None:
        if self.num_gpus <= 0 or self.gpus_per_node <= 0:
            raise SimulationError("cluster sizes must be positive")

    def collective_bandwidth(self, group_size: int) -> float:
        """Per-rank algorithm bandwidth (bytes/s) for a collective.

        Groups that fit inside one node ride the intra-node link; groups
        spanning nodes are limited by the inter-node link.
        """
        if group_size <= self.gpus_per_node:
            return self.gpu.intra_node_gbps * 1e9 * self.collective_efficiency
        return self.gpu.inter_node_gbps * 1e9 * self.collective_efficiency
