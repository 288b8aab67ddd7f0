"""The rebuild-every-wave planner: the reference the wave path is checked against.

:class:`ReferenceOrchestrator` plans each wave the original way.  Every
live job's window is rebuilt as a fresh
:class:`~repro.data.dataset.FinetuneDataset` and
:class:`~repro.scheduler.types.AdapterJob` (``dataclasses.replace``,
with their validation), head-tail groups are always computed, and
:func:`reference_assemble` interleaves, merges, inserts no-ops and
verifies every plan, whatever its step count.  Nothing is skipped, so it
is slow and plainly correct.

It shares the orchestrator's admission, window choice, pricing and
splice, and the scheduler's packing primitives, groupers, merge pass
and bubble-lemma code; it owns only how a wave is handed to the
scheduler and which passes run on it.  Equal streams and stats
therefore pin the wave path: slices in place of rebuilt jobs, no
grouping for a lone job, and no merge or no-op pass on a one-step plan.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.errors import ScheduleError
from repro.scheduler.bubble import find_violations, insert_noops
from repro.scheduler.grouping import head_tail_groups
from repro.scheduler.merging import merge_pass
from repro.scheduler.scheduler import PackingPlan, SchedulerConfig, pack_global_batch
from repro.scheduler.types import AdapterJob, Microbatch, Schedule
from repro.serve import OnlineOrchestrator
from repro.serve.orchestrator import _ACCUMULATED_STATS


def window_job(source: AdapterJob, next_batch: int, end: int) -> AdapterJob:
    """Global batches ``[next_batch, end)`` of ``source`` as a rebuilt job."""
    gbs = source.global_batch_size
    samples = source.dataset.samples[next_batch * gbs : end * gbs]
    return replace(
        source,
        dataset=replace(source.dataset, samples=samples),
        batch_offset=next_batch,
    )


def reference_plan_step(
    jobs: list[AdapterJob],
    config: SchedulerConfig,
    groups: list[list[AdapterJob]] | None = None,
) -> PackingPlan:
    """Group (head-tail, unless given) and pack every (group, step) region."""
    start = time.perf_counter()
    if groups is None:
        groups = head_tail_groups(jobs, config.resolved_group_size(len(jobs)))
    results = []
    for group_index, group in enumerate(groups):
        num_steps = max(job.num_global_batches() for job in group)
        for step in range(num_steps):
            samples = []
            for job in group:
                begin = step * job.global_batch_size
                end = begin + job.global_batch_size
                label = job.batch_offset + step
                samples.extend(
                    (sample, label) for sample in job.dataset.samples[begin:end]
                )
            if samples:
                bins, method = pack_global_batch(
                    samples, config.capacity, config.padding_multiple, config.use_milp
                )
                results.append((group_index, step, bins, method))
    plan = PackingPlan(groups=groups, num_tasks=len(results))
    for group_index, step, bins, method in results:
        bins = sorted(bins, key=lambda mb: -mb.padded_tokens)
        for mb in bins:
            mb.group = group_index
            mb.step = step
        plan.packed[(group_index, step)] = bins
        if method == "milp":
            plan.milp_wins += 1
    plan.seconds = time.perf_counter() - start
    return plan


def reference_assemble(plan: PackingPlan, config: SchedulerConfig) -> Schedule:
    """Interleave, merge, insert no-ops and verify, on every plan."""
    stream: list[Microbatch] = []
    max_step = max((key[1] for key in plan.packed), default=-1)
    for step in range(max_step + 1):
        for group_index in range(len(plan.groups)):
            stream.extend(plan.packed.get((group_index, step), []))
    merges = 0
    if config.use_merge:
        stream, merges = merge_pass(stream, config.num_stages)
    stream, noops = insert_noops(stream, config.num_stages)
    violations = find_violations(stream, config.num_stages)
    if violations:
        raise ScheduleError(f"reference schedule violates the lemma: {violations}")
    stats = {
        "packing_tasks": float(plan.num_tasks),
        "milp_selected": float(plan.milp_wins),
        "merges": float(merges),
        "noops_inserted": float(noops),
    }
    return Schedule(microbatches=stream, num_stages=config.num_stages, stats=stats)


class ReferenceOrchestrator(OnlineOrchestrator):
    """An orchestrator whose waves are planned by the reference path."""

    def _plan_wave(self) -> list[Microbatch]:
        self._close_wave_estimate()
        window_size = self._next_window()
        predicted = (
            self._wave_price(window_size) if self._estimator is not None else None
        )
        wave_jobs = []
        for state in self._active.values():
            if state.next_batch >= state.num_batches:
                continue
            end = (
                state.num_batches
                if window_size is None
                else min(state.num_batches, state.next_batch + window_size)
            )
            wave_jobs.append(window_job(state.serve_job.job, state.next_batch, end))
            state.next_batch = end
        config = self.config.scheduler
        groups = None
        if self._grouper is not None:
            groups = self._grouper.groups_for(
                wave_jobs,
                capacity=config.capacity,
                padding_multiple=config.padding_multiple,
            )
        window = reference_assemble(
            reference_plan_step(wave_jobs, config, groups), config
        )
        for key in _ACCUMULATED_STATS:
            self._stats[key] += window.stats.get(key, 0.0)
        self._planned_mbs += len(window.microbatches) + window.stats.get(
            "merges", 0.0
        )
        spliced = self._splicer.splice(window.microbatches, plan_id=self._replans)
        for mb in spliced:
            mb.replica = self.replica_id
        self._replans += 1
        if predicted is not None:
            self._open_wave = (
                predicted,
                self.executor.clock,
                self._idle_advanced,
                tuple(job.adapter_id for job in wave_jobs),
            )
        return spliced
