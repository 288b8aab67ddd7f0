"""Parallelism profiler: propose the microbatch token capacity (Figure 8).

The scheduler needs a token capacity as input, and the right value is
workload-dependent: short-sample datasets (XSum) want small capacities so a
global-batch step yields enough microbatches to fill the pipeline, while
long-sample datasets (WikiSum) need at least the longest sample and prefer
large, launch-efficient microbatches.  The paper resolves this with a
lightweight profiler that benchmarks candidate configurations and feeds the
winner's token capacity to the data batcher; "the grouping and batching
outputs are re-evaluated through simulation, and the process iterates until
a high-throughput configuration is found".

Our profiler does exactly that against the discrete-event simulator: it
schedules a probe prefix of the workload at each candidate capacity,
simulates the pipeline, and returns the best-throughput capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.distsim.cluster import ClusterSpec
from repro.distsim.systems import run_lorafusion
from repro.errors import ScheduleError
from repro.models.config import ModelConfig
from repro.scheduler.scheduler import SchedulerConfig
from repro.scheduler.types import AdapterJob

__all__ = ["CandidateResult", "ProfilerReport", "propose_capacity",
           "DEFAULT_CAPACITY_CANDIDATES"]

#: Token-capacity candidates swept by default (multiples of 1024).
DEFAULT_CAPACITY_CANDIDATES = (2048, 3072, 4096, 6144, 8192, 12288, 16384)


@dataclass(frozen=True)
class CandidateResult:
    """Simulated outcome of one capacity candidate.

    Attributes:
        capacity: Token capacity probed.
        tokens_per_second: Simulated throughput on the probe prefix.
        bubble_ratio: Simulated pipeline idle fraction.
    """

    capacity: int
    tokens_per_second: float
    bubble_ratio: float | None


@dataclass
class ProfilerReport:
    """Profiler outcome: the chosen capacity plus the full sweep."""

    best_capacity: int
    candidates: list[CandidateResult] = field(default_factory=list)


def _probe_jobs(jobs: list[AdapterJob], probe_batches: int) -> list[AdapterJob]:
    """Truncate each job to its first ``probe_batches`` global batches."""
    truncated = []
    for job in jobs:
        keep = min(len(job.dataset), probe_batches * job.global_batch_size)
        dataset = type(job.dataset)(
            adapter_id=job.adapter_id,
            samples=job.dataset.samples[:keep],
            source=job.dataset.source,
        )
        truncated.append(
            AdapterJob(
                adapter_id=job.adapter_id,
                dataset=dataset,
                global_batch_size=job.global_batch_size,
            )
        )
    return truncated


def min_required_capacity(jobs: list[AdapterJob], padding_multiple: int) -> int:
    """Smallest capacity that can hold the longest sample after padding."""
    longest = max(s.length for job in jobs for s in job.dataset.samples)
    return math.ceil(longest / padding_multiple) * padding_multiple


def propose_capacity(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    candidates: tuple[int, ...] = DEFAULT_CAPACITY_CANDIDATES,
    padding_multiple: int = 64,
    probe_batches: int = 2,
    use_milp: bool = False,
) -> ProfilerReport:
    """Sweep capacity candidates on a probe prefix and pick the best.

    Args:
        jobs: The full workload (only a prefix is simulated).
        model: Model being fine-tuned.
        cluster: Target cluster.
        candidates: Capacities to try; values below the longest sample are
            raised to it.
        padding_multiple: Scheduler padding granule.
        probe_batches: Global batches per job in the probe prefix.
        use_milp: Run the probe schedules with the MILP packer (slower,
            marginally more accurate); greedy is the profiler default.

    Returns:
        The winning capacity and every candidate's simulated throughput.
    """
    if not jobs:
        raise ScheduleError("profiler requires at least one job")
    floor = min_required_capacity(jobs, padding_multiple)
    sweep = sorted({max(c, floor) for c in candidates})
    probe = _probe_jobs(jobs, probe_batches)
    results: list[CandidateResult] = []
    for capacity in sweep:
        config = SchedulerConfig(
            capacity=capacity,
            padding_multiple=padding_multiple,
            num_stages=cluster.num_gpus,
            use_milp=use_milp,
        )
        report = run_lorafusion(
            probe, model, cluster, scheduler_config=config, capacity=capacity
        )
        results.append(
            CandidateResult(
                capacity=capacity,
                tokens_per_second=report.tokens_per_second,
                bubble_ratio=report.bubble_ratio,
            )
        )
    best = max(results, key=lambda r: r.tokens_per_second)
    return ProfilerReport(best_capacity=best.capacity, candidates=results)
