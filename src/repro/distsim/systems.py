"""End-to-end system models: Megatron-LM (FSDP/PP), mLoRA, LoRAFusion.

Each ``run_*`` function executes a set of fine-tuning jobs under one
system's strategy and returns a :class:`SystemReport` with the paper's
primary metric -- trained tokens per second -- plus bubble statistics.

System differences, matching Section 6.1's baselines:

* ``run_megatron_*``: no multi-LoRA support, so the jobs train
  *sequentially*; unfused ("torch") LoRA kernels; on-the-fly packing with a
  fixed sample count per microbatch.
* ``run_mlora``: jobs train jointly; uniform adapter filling (each
  microbatch holds samples of a single adapter; adapters round-robin);
  naive LoRA kernels (the paper's optimistic assumption); zero-bubble
  streaming pipeline.
* ``run_lorafusion``: jobs train jointly under the full scheduler
  (grouping + two-stage MILP packing + merging), FusedLoRA /
  FusedMultiLoRA kernels, zero-bubble streaming pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.data.dataset import Sample
from repro.distsim.cluster import ClusterSpec
from repro.distsim.fsdp import simulate_fsdp_step
from repro.distsim.pipeline import (
    PipelineMicrobatch,
    PipelineResult,
    simulate_flushed,
    simulate_stream,
)
from repro.errors import SimulationError
from repro.models.config import ModelConfig
from repro.models.layer_costs import LayerCostModel, MicrobatchShape
from repro.scheduler.bubble import insert_noops
from repro.scheduler.scheduler import MultiLoRAScheduler, SchedulerConfig
from repro.scheduler.types import AdapterJob, Assignment, Microbatch

__all__ = [
    "SystemReport",
    "stage_times",
    "to_pipeline_microbatch",
    "run_single_gpu_sequential",
    "run_megatron_fsdp",
    "run_megatron_pp",
    "run_mlora",
    "run_lorafusion",
]


@dataclass
class SystemReport:
    """Outcome of one end-to-end run.

    Attributes:
        system: System name.
        tokens_per_second: Trained (real, unpadded) tokens per second --
            the paper's headline metric.
        total_tokens: Real tokens processed.
        total_time: Simulated wall-clock seconds.
        bubble_ratio: Pipeline idle fraction (None for non-pipeline runs).
        num_microbatches: Microbatches executed.
    """

    system: str
    tokens_per_second: float
    total_tokens: int
    total_time: float
    bubble_ratio: float | None = None
    num_microbatches: int = 0


def stage_times(
    cost: LayerCostModel, shape: MicrobatchShape, num_stages: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-stage forward/backward seconds for one microbatch.

    Element for element equal to ``cost.stage_time`` of each stage and
    direction, but the layer time is looked up once per direction and
    every stage built from it by the same rule
    (:meth:`~repro.models.layer_costs.LayerCostModel.stage_times_from_layer`).
    """
    if shape.tokens == 0:
        zeros = (0.0,) * num_stages
        return zeros, zeros
    layers = cost.model.num_layers / num_stages
    fwd, bwd = (
        cost.stage_times_from_layer(
            cost.layer_time(shape, direction), shape.tokens, direction, layers,
            num_stages,
        )
        for direction in ("forward", "backward")
    )
    return fwd, bwd


def to_pipeline_microbatch(
    mb: Microbatch, cost: LayerCostModel, num_stages: int
) -> PipelineMicrobatch:
    """Convert a scheduled microbatch into its pipeline work description."""
    if mb.is_noop:
        zeros = tuple(0.0 for _ in range(num_stages))
        return PipelineMicrobatch(fwd_times=zeros, bwd_times=zeros)
    fwd, bwd = stage_times(cost, mb.shape(), num_stages)
    pairs = frozenset(
        (adapter_id, batch)
        for adapter_id, batches in mb.batches_by_adapter().items()
        for batch in batches
    )
    return PipelineMicrobatch(fwd_times=fwd, bwd_times=bwd, adapter_batches=pairs)


def onthefly_microbatches_for_batch(
    batch: list[Sample], microbatch_samples: int, step: int,
    capacity: int, padding_multiple: int,
) -> list[Microbatch]:
    """Fixed-sample-count on-the-fly packing of one global batch (Fig. 2c)."""
    # Built from the full assignment list, not through ``add``: the
    # fixed-count baselines overfill microbatches by design, and ``add``
    # would refuse the sample that crosses capacity.
    return [
        Microbatch(
            assignments=[
                Assignment(sample=sample, global_batch=step)
                for sample in batch[i : i + microbatch_samples]
            ],
            capacity=capacity,
            padding_multiple=padding_multiple,
            step=step,
        )
        for i in range(0, len(batch), microbatch_samples)
    ]


def round_robin_stream(
    jobs: list[AdapterJob],
    samples_per_microbatch: dict[int, int],
    capacity: int,
    num_stages: int,
) -> list[Microbatch]:
    """Uniform adapter filling: mLoRA's stream, with no-ops for the lemma.

    Every global-batch step, each job's batch is packed on the fly into
    single-adapter microbatches of its own fixed sample count
    (``samples_per_microbatch[adapter_id]``), and the jobs' microbatches
    interleave round-robin, filling each other's pipeline gaps.
    """
    per_job = [job.dataset.global_batches(job.global_batch_size) for job in jobs]
    stream: list[Microbatch] = []
    for step in range(max(len(batches) for batches in per_job)):
        round_robin = [
            onthefly_microbatches_for_batch(
                batches[step], samples_per_microbatch[job.adapter_id], step,
                capacity, 64)
            for job, batches in zip(jobs, per_job)
            if step < len(batches)
        ]
        for i in range(max(len(job_mbs) for job_mbs in round_robin)):
            stream.extend(job_mbs[i] for job_mbs in round_robin if i < len(job_mbs))
    stream, _ = insert_noops(stream, num_stages)
    return stream


def default_microbatch_samples(
    jobs: list[AdapterJob], capacity: int, num_stages: int = 1
) -> int:
    """Default samples per microbatch for the fixed-count baselines.

    Respects both constraints the baselines face: the average microbatch
    should fit the token capacity, and a global batch should yield at
    least ``num_stages`` microbatches so 1F1B has work to overlap.
    """
    mean = sum(j.dataset.mean_length() for j in jobs) / len(jobs)
    by_capacity = max(1, round(capacity / mean))
    min_gbs = min(j.global_batch_size for j in jobs)
    by_stages = max(1, min_gbs // max(1, num_stages))
    return max(1, min(by_capacity, by_stages))


def _report(
    system: str, total_tokens: int, result: PipelineResult
) -> SystemReport:
    return SystemReport(
        system=system,
        tokens_per_second=total_tokens / result.makespan if result.makespan else 0.0,
        total_tokens=total_tokens,
        total_time=result.makespan,
        bubble_ratio=result.bubble_ratio,
        num_microbatches=result.num_microbatches,
    )


def run_single_gpu_sequential(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    capacity: int = 8192,
    microbatch_samples: int | None = None,
    strategy: str = "torch",
) -> SystemReport:
    """Sequential single-GPU training (the 8B baseline of Figure 14)."""
    cost = LayerCostModel(model, cluster.gpu, strategy=strategy)
    total_tokens = 0
    total_time = 0.0
    count = 0
    mbs = microbatch_samples or default_microbatch_samples(jobs, capacity)
    for job in jobs:
        for step, batch in enumerate(job.dataset.global_batches(
                job.global_batch_size)):
            for mb in onthefly_microbatches_for_batch(batch, mbs, step,
                                                      capacity, 64):
                shape = mb.shape()
                total_time += cost.stage_time(shape, "forward", model.num_layers,
                                              True, True)
                total_time += cost.stage_time(shape, "backward", model.num_layers,
                                              True, True)
                total_tokens += mb.real_tokens
                count += 1
            total_time += cost.optimizer_step_time()
    return SystemReport(
        system=f"single-gpu-{strategy}",
        tokens_per_second=total_tokens / total_time if total_time else 0.0,
        total_tokens=total_tokens,
        total_time=total_time,
        bubble_ratio=None,
        num_microbatches=count,
    )


def run_megatron_fsdp(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    strategy: str = "torch",
) -> SystemReport:
    """Megatron-LM with FSDP: sequential jobs, DP = all GPUs.

    Each global batch is split evenly across ranks; every rank packs its
    share into one microbatch (on-the-fly packing).
    """
    dp = cluster.num_gpus
    cost = LayerCostModel(model, cluster.gpu, strategy=strategy)
    total_tokens = 0
    total_time = 0.0
    steps = 0
    for job in jobs:
        for batch in job.dataset.global_batches(job.global_batch_size):
            share = math.ceil(len(batch) / dp)
            per_rank = []
            for r in range(dp):
                lengths = [s.length for s in batch[r * share : (r + 1) * share]]
                per_rank.append(
                    [MicrobatchShape.from_lengths(lengths)] if lengths else []
                )
            result = simulate_fsdp_step(per_rank, cost, cluster)
            total_time += result.step_time
            total_tokens += sum(s.length for s in batch)
            steps += 1
    return SystemReport(
        system="megatron-fsdp",
        tokens_per_second=total_tokens / total_time if total_time else 0.0,
        total_tokens=total_tokens,
        total_time=total_time,
        bubble_ratio=None,
        num_microbatches=steps,
    )


def run_megatron_pp(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    capacity: int = 8192,
    microbatch_samples: int | None = None,
    strategy: str = "torch",
) -> SystemReport:
    """Megatron-LM with 1F1B pipeline parallelism: sequential jobs, flush
    between every global batch."""
    num_stages = cluster.num_gpus
    cost = LayerCostModel(model, cluster.gpu, strategy=strategy)
    mbs = microbatch_samples or default_microbatch_samples(jobs, capacity,
                                                           num_stages)
    batches: list[list[PipelineMicrobatch]] = []
    total_tokens = 0
    for job in jobs:
        for step, batch in enumerate(job.dataset.global_batches(
                job.global_batch_size)):
            mb_list = onthefly_microbatches_for_batch(batch, mbs, step,
                                                      capacity, 64)
            batches.append(
                [to_pipeline_microbatch(mb, cost, num_stages) for mb in mb_list]
            )
            total_tokens += sum(s.length for s in batch)
    result = simulate_flushed(batches, num_stages)
    return _report("megatron-pp", total_tokens, result)


def run_mlora(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    capacity: int = 8192,
    microbatch_samples: int | None = None,
) -> SystemReport:
    """mLoRA: joint multi-LoRA training with uniform adapter filling.

    Every global-batch step, each adapter's samples are packed into
    single-adapter microbatches (fixed sample count) and the adapters'
    microbatches interleave round-robin, filling each other's pipeline
    gaps.  Kernels are the naive unfused ones (the paper's optimistic
    assumption for mLoRA's BatchLoRA).
    """
    num_stages = cluster.num_gpus
    cost = LayerCostModel(model, cluster.gpu, strategy="torch")
    # Unlike Megatron-PP, mLoRA does not need many microbatches per global
    # batch: other adapters fill the pipeline.  mLoRA batches each adapter
    # by memory capacity, so the sample count is per job: a long-sample
    # job packs fewer samples per microbatch than a short-sample one.
    per_job_mbs = {
        job.adapter_id: microbatch_samples
        or max(1, round(capacity / job.dataset.mean_length()))
        for job in jobs
    }
    stream = round_robin_stream(jobs, per_job_mbs, capacity, num_stages)
    total_tokens = sum(mb.real_tokens for mb in stream)
    pipeline = [to_pipeline_microbatch(mb, cost, num_stages) for mb in stream]
    result = simulate_stream(pipeline, num_stages)
    return _report("mlora", total_tokens, result)


def run_lorafusion(
    jobs: list[AdapterJob],
    model: ModelConfig,
    cluster: ClusterSpec,
    scheduler_config: SchedulerConfig | None = None,
    capacity: int = 8192,
    use_fused_kernels: bool = True,
    use_scheduler: bool = True,
    microbatch_samples: int | None = None,
) -> SystemReport:
    """LoRAFusion: scheduled multi-LoRA training with fused kernels.

    The ablation switches reproduce Figure 22's breakdown: disabling
    ``use_fused_kernels`` falls back to naive kernels on the balanced
    schedule; disabling ``use_scheduler`` keeps fused kernels but uses
    mLoRA-style uniform filling.
    """
    num_stages = cluster.num_gpus
    strategy = "fused_multi" if use_fused_kernels else "torch"
    cost = LayerCostModel(model, cluster.gpu, strategy=strategy)
    if use_scheduler:
        config = scheduler_config or SchedulerConfig(
            capacity=capacity, num_stages=num_stages
        )
        schedule = MultiLoRAScheduler(jobs, config).schedule()
        stream = schedule.microbatches
    else:
        # Fair comparison with mLoRA: capacity-driven microbatch size.
        mbs = microbatch_samples or default_microbatch_samples(jobs, capacity)
        stream = round_robin_stream(
            jobs, {job.adapter_id: mbs for job in jobs}, capacity, num_stages
        )
    total_tokens = sum(mb.real_tokens for mb in stream)
    pipeline = [to_pipeline_microbatch(mb, cost, num_stages) for mb in stream]
    result = simulate_stream(pipeline, num_stages)
    name = "lorafusion" if use_fused_kernels and use_scheduler else (
        "lorafusion-nofuse" if use_scheduler else "lorafusion-nosched"
    )
    return _report(name, total_tokens, result)
