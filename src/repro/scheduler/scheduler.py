"""The multi-LoRA scheduler: grouping, packing, merging, verification.

This is the top of the scheduling stack (Figure 12).  Given a set of
fine-tuning jobs sharing one base model, the scheduler:

1. groups adapters by head-tail pairing on mean sample length;
2. for every (group, global-batch-step), packs the step's samples into
   capacity-bounded microbatches: greedy first-fit-decreasing, then the
   exact two-stage search (Equations 3-4), which keeps greedy's packing
   unless it finds a strictly better one (Algorithm 1) -- steps are
   independent, so packing parallelises across worker processes;
3. assembles the global stream by interleaving groups step by step, which
   spaces each adapter's consecutive batches apart;
4. merges underfilled tail microbatches across batch boundaries when the
   bubble lemma allows;
5. inserts no-op microbatches where the bubble lemma needs them;
6. verifies the bubble lemma.

Steps 4-5 run only on plans of more than one step.  A one-step plan --
every wave of one-batch windows -- has one region per group, so step 3
concatenates the regions in group order, and with no next region to
merge from and one batch label per adapter, steps 4-5 are the identity
there; step 6 runs on every plan.  A lone job is its own group, so it
skips step 1.

Jobs are :class:`~repro.scheduler.types.AdapterJob` (offline, whole
horizon) or :class:`~repro.scheduler.types.JobWindow` (online: one slice
of a live job's samples per wave); both go through the same code.

The result is a :class:`~repro.scheduler.types.Schedule` that any executor
(the numeric engine or the pipeline simulator) can run directly.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.data.dataset import Sample
from repro.errors import ScheduleError, require_int
from repro.scheduler.bubble import find_violations, insert_noops
from repro.scheduler.greedy import greedy_layout, microbatches_from_layout
from repro.scheduler.grouping import head_tail_groups
from repro.scheduler.merging import merge_pass
from repro.scheduler.milp import milp_pack
from repro.scheduler.types import Microbatch, PlannedJob, Schedule

__all__ = [
    "PackingPlan",
    "SchedulerConfig",
    "MultiLoRAScheduler",
    "pack_global_batch",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the multi-LoRA scheduler.

    Attributes:
        capacity: Microbatch token budget (from the parallelism profiler).
        padding_multiple: Per-adapter padding granule ``P`` (64 or 128).
        num_stages: Pipeline depth the schedule must respect.
        use_milp: Enable the exact two-stage search (else pure greedy).
        use_merge: Enable the cross-batch merge pass.
        group_size: Adapters per group for head-tail pairing; None derives
            it from the job count (pairs when there are 4+ jobs, singleton
            groups for 2-3 jobs so their batches still interleave, one
            group for a lone job).
        max_workers: Worker processes for parallel packing (0 = inline).
    """

    capacity: int
    padding_multiple: int = 64
    num_stages: int = 1
    use_milp: bool = True
    use_merge: bool = True
    group_size: int | None = None
    max_workers: int = 0

    def resolved_group_size(self, num_jobs: int) -> int:
        """The group size to use for ``num_jobs`` jobs."""
        if self.group_size is not None:
            return self.group_size
        if num_jobs >= 4:
            return max(1, num_jobs // 2)
        return 1

    def __post_init__(self) -> None:
        require_int(
            capacity=self.capacity,
            padding_multiple=self.padding_multiple,
            num_stages=self.num_stages,
            max_workers=self.max_workers,
        )
        if self.group_size is not None:
            require_int(group_size=self.group_size)
            if self.group_size < 1:
                raise ScheduleError("group_size must be at least 1")
        if self.capacity <= 0:
            raise ScheduleError("capacity must be positive")
        if self.padding_multiple <= 0:
            raise ScheduleError("padding_multiple must be positive")
        if self.capacity % self.padding_multiple != 0:
            raise ScheduleError(
                f"capacity {self.capacity} must be a multiple of the padding "
                f"multiple {self.padding_multiple}"
            )
        if self.num_stages < 1:
            raise ScheduleError("num_stages must be at least 1")
        if self.max_workers < 0:
            raise ScheduleError("max_workers must be non-negative")


def pack_global_batch(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    use_milp: bool,
) -> tuple[list[Microbatch], str]:
    """Pack one (group, step)'s samples per Algorithm 1.

    Greedy packs first; with more than one greedy bin the two-stage
    search (:func:`~repro.scheduler.milp.milp_pack`) starts from that
    packing's bin loads and replaces it only with a strictly better one
    -- fewer bins, or as many with a smaller smallest bin.  Greedy's
    microbatches are built only when greedy's packing is kept.

    Module-level (picklable) so worker processes can run it.

    Returns:
        ``(microbatches, method)`` with method ``"milp"`` or ``"greedy"``.
    """
    members, loads = greedy_layout(samples, capacity, padding_multiple)
    if use_milp and len(loads) > 1:
        result = milp_pack(samples, capacity, padding_multiple, loads)
        if result.microbatches is not None:
            return result.microbatches, "milp"
    return (
        microbatches_from_layout(samples, members, capacity, padding_multiple),
        "greedy",
    )


def _pack_task(capacity, padding, use_milp, task):
    group_index, step, samples = task
    bins, method = pack_global_batch(samples, capacity, padding, use_milp)
    # Emit fullest-first so the underfilled bin sits at the region tail
    # where the merge pass can reach it.
    bins.sort(key=lambda mb: -mb.padded_tokens)
    for mb in bins:
        mb.group, mb.step = group_index, step
    return group_index, step, bins, method


@dataclass
class PackingPlan:
    """Phase-1 output of the scheduler: grouped, packed, not yet assembled.

    The offline path assembles a plan immediately; the online orchestrator
    plans one *window* of live jobs at a time and splices the assembled
    stream into the in-flight schedule.

    Attributes:
        groups: Head-tail adapter groups, in schedule-position order.
        packed: Microbatches per ``(group_index, local_step)``, sorted
            fullest-first within each region.
        milp_wins: Packing tasks where the MILP beat greedy.
        num_tasks: Total packing tasks executed.
        seconds: Wall-clock time the packing phase took (folded into the
            assembled schedule's ``tuning_seconds``).
    """

    groups: list[list[PlannedJob]]
    packed: dict[tuple[int, int], list[Microbatch]] = field(default_factory=dict)
    milp_wins: int = 0
    num_tasks: int = 0
    seconds: float = 0.0


class MultiLoRAScheduler:
    """Schedules multiple LoRA fine-tuning jobs onto one microbatch stream.

    The pipeline has two reusable phases.  :meth:`plan_step` groups the
    jobs and packs every (group, global-batch step) region into
    capacity-bounded microbatches; :meth:`assemble` interleaves the packed
    regions, runs the merge pass, and verifies/fixes the bubble lemma.
    :meth:`schedule` composes the two for the offline whole-horizon case;
    the online orchestrator calls them per replanning window, with each
    job's ``batch_offset`` carrying the absolute optimizer-step indices.

    Args:
        jobs: The fine-tuning jobs or live-job windows (distinct adapter
            ids).
        config: Scheduler tunables.
    """

    def __init__(self, jobs: Sequence[PlannedJob], config: SchedulerConfig) -> None:
        if not jobs:
            raise ScheduleError("scheduler requires at least one job")
        ids = [job.adapter_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ScheduleError(f"duplicate adapter ids: {ids}")
        self.jobs = list(jobs)
        self.config = config

    def _packing_tasks(self, groups: list[list[PlannedJob]]):
        """One packing task per (group, global-batch step).

        Step ``j`` of a job is the slice ``samples[j*gbs:(j+1)*gbs]`` of
        its samples; a job with fewer steps than its group adds nothing
        to the later ones.
        """
        tasks = []
        for group_index, group in enumerate(groups):
            num_steps = max(job.num_global_batches() for job in group)
            for step in range(num_steps):
                samples: list[tuple[Sample, int]] = []
                for job in group:
                    start, label = step * job.global_batch_size, job.batch_offset + step
                    batch = job.samples[start : start + job.global_batch_size]
                    samples.extend((sample, label) for sample in batch)
                if samples:
                    tasks.append((group_index, step, samples))
        return tasks

    def _run_packing(self, tasks):
        cfg = self.config
        pack = partial(_pack_task, cfg.capacity, cfg.padding_multiple, cfg.use_milp)
        if cfg.max_workers and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=cfg.max_workers) as pool:
                return list(pool.map(pack, tasks))
        return [pack(task) for task in tasks]

    def plan_step(self, groups: list[list[PlannedJob]] | None = None) -> PackingPlan:
        """Phase 1: group the jobs and pack every (group, step) region.

        Args:
            groups: Pre-computed adapter groups (e.g. held fixed across
                online replans); derived by head-tail pairing when omitted
                (a lone job is its own group).  Must cover exactly this
                scheduler's jobs.
        """
        start = time.perf_counter()
        if groups is None and len(self.jobs) == 1:
            groups = [self.jobs]
        elif groups is None:
            groups = head_tail_groups(
                self.jobs, self.config.resolved_group_size(len(self.jobs))
            )
        else:
            grouped = [job.adapter_id for group in groups for job in group]
            expected = {job.adapter_id for job in self.jobs}
            if len(grouped) != len(set(grouped)) or set(grouped) != expected:
                raise ScheduleError(
                    f"groups cover adapters {sorted(grouped)} but the "
                    f"scheduler's jobs are {sorted(expected)}"
                )
        results = self._run_packing(self._packing_tasks(groups))
        plan = PackingPlan(groups=groups, num_tasks=len(results))
        for group_index, step, bins, method in results:
            plan.packed[(group_index, step)] = bins
            if method == "milp":
                plan.milp_wins += 1
        plan.seconds = time.perf_counter() - start
        return plan

    def assemble(self, plan: PackingPlan) -> Schedule:
        """Phase 2: interleave, merge, fix and verify a packing plan.

        A one-step plan (every region at step 0) is emitted group by
        group as packed: the merge pass would find no ``(group, step+1)``
        donor region, and each adapter brings one batch label, so no
        ``(adapter, batch-1)`` dependency can need a no-op.  Verification
        runs on every plan.

        Raises:
            ScheduleError: If the assembled stream still violates the
                bubble lemma after no-op insertion (never expected).
        """
        cfg = self.config
        start = time.perf_counter()
        # Interleave groups step by step: G0/B0, G1/B0, G0/B1, G1/B1, ...
        stream: list[Microbatch] = []
        max_step = max((key[1] for key in plan.packed), default=-1)
        for step in range(max_step + 1):
            for group_index in range(len(plan.groups)):
                stream.extend(plan.packed.get((group_index, step), []))
        merges = noops = 0
        if max_step > 0:
            if cfg.use_merge:
                stream, merges = merge_pass(stream, cfg.num_stages)
            stream, noops = insert_noops(stream, cfg.num_stages)
        violations = find_violations(stream, cfg.num_stages)
        if violations:
            raise ScheduleError(
                f"schedule violates the bubble lemma after fixing: {violations[:3]}"
            )
        elapsed = time.perf_counter() - start
        stats = {
            "groups": float(len(plan.groups)),
            "packing_tasks": float(plan.num_tasks),
            "milp_selected": float(plan.milp_wins),
            "milp_selected_frac": (
                plan.milp_wins / plan.num_tasks if plan.num_tasks else 0.0
            ),
            "merges": float(merges),
            "noops_inserted": float(noops),
            "microbatches": float(len(stream)),
            "tuning_seconds": plan.seconds + elapsed,
        }
        return Schedule(microbatches=stream, num_stages=cfg.num_stages, stats=stats)

    def schedule(self) -> Schedule:
        """Produce the verified microbatch stream for all jobs."""
        return self.assemble(self.plan_step())
