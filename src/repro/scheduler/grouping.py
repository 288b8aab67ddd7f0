"""Adapter grouping with head-tail pairing (Section 5.2).

Grouping serves two purposes.  First, *correctness scheduling room*: batches
of the same adapter must be spaced apart so the bubble lemma holds; putting
adapters into groups whose batches interleave creates that spacing
naturally.  Second, *load balance*: pairing a short-sequence adapter with a
long-sequence one gives the bin packer a mix of large and small items,
which packs far better than all-large or all-small.

The paper's heuristic: sort adapters by mean sample length, then repeatedly
pair the shortest remaining ("head") with the longest remaining ("tail").

Two length-aware alternatives live alongside it.  :func:`knapsack_groups`
sizes groups by *token mass* instead of member count: each job is weighed
by its padded per-step tokens and jobs are binned by first-fit-decreasing
(:func:`repro.data.packing.greedy_knapsack`) so a group's combined
per-step mass fills microbatch capacity tightly -- the grouping analogue
of knapsack sequence packing.  :class:`StickyGrouper` makes either layout
stable across planning waves: as long as the live set's membership is
unchanged, the cached layout is reused, so the merge pass sees the same
adjacencies wave after wave and its discount becomes predictable.
"""

from __future__ import annotations

import math

from repro.data.packing import greedy_knapsack
from repro.errors import ScheduleError
from repro.scheduler.types import PlannedJob

__all__ = ["StickyGrouper", "head_tail_groups", "knapsack_groups"]


def head_tail_groups(
    jobs: list[PlannedJob], group_size: int = 2
) -> list[list[PlannedJob]]:
    """Partition jobs into groups by head-tail pairing.

    Args:
        jobs: The fine-tuning jobs to co-schedule.
        group_size: Adapters per group.  With the default of 2 and four
            adapters this produces the paper's two-group layout; sizes that
            do not divide evenly leave one smaller group.  A size larger
            than the live set is clamped to it (one group holding every
            job) rather than rejected: callers legitimately pass a fleet
            default while the live set shrinks to a single job.

    Returns:
        Groups ordered by schedule position.  Within a group, adapters are
        ordered short-first.
    """
    if not jobs:
        raise ScheduleError("head_tail_groups requires at least one job")
    if group_size <= 0:
        raise ScheduleError(f"group_size must be positive, got {group_size}")
    group_size = min(group_size, len(jobs))
    ids = [job.adapter_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ScheduleError(f"duplicate adapter ids in jobs: {ids}")

    by_length = sorted(jobs, key=lambda job: (job.mean_length(), job.adapter_id))
    groups: list[list[PlannedJob]] = []
    lo, hi = 0, len(by_length) - 1
    while lo <= hi:
        group: list[PlannedJob] = []
        # Alternate head (short) and tail (long) picks until the group is
        # full or the pool is exhausted.
        take_head = True
        while len(group) < group_size and lo <= hi:
            if take_head:
                group.append(by_length[lo])
                lo += 1
            else:
                group.append(by_length[hi])
                hi -= 1
            take_head = not take_head
        group.sort(key=lambda job: (job.mean_length(), job.adapter_id))
        groups.append(group)
    return groups


def _step_mass(job: PlannedJob, capacity: int, padding_multiple: int) -> int:
    """A job's padded per-optimizer-step token mass, clamped to capacity.

    The knapsack item weight: one global batch's tokens, padded up to the
    tile granule ``P`` the same way :class:`~repro.scheduler.types.Microbatch`
    pads them.  Clamping to ``capacity`` keeps a single heavy job packable
    (it simply fills its bins alone, as it would anyway).
    """
    per_step = job.mean_length() * min(job.global_batch_size, len(job.samples))
    padded = math.ceil(per_step / padding_multiple) * padding_multiple
    return max(padding_multiple, min(padded, capacity))


def knapsack_groups(
    jobs: list[PlannedJob], capacity: int, padding_multiple: int = 64
) -> list[list[PlannedJob]]:
    """Partition jobs into groups by token-mass knapsack packing.

    Where :func:`head_tail_groups` pairs by length *contrast* at a fixed
    member count, this weighs each job by its padded per-step token mass
    (:func:`_step_mass`) and bins jobs first-fit-decreasing against
    microbatch ``capacity`` -- so a group's combined per-step mass fills
    whole microbatches tightly and the bin packer downstream sees items
    that sum near capacity multiples instead of scattering.

    Args:
        jobs: The fine-tuning jobs to co-schedule (unique adapter ids).
        capacity: Microbatch token capacity (the knapsack size).
        padding_multiple: The tile granule ``P`` used to pad each mass.

    Returns:
        Groups ordered by schedule position (knapsack creation order).
        Within a group, adapters are ordered short-first, matching
        :func:`head_tail_groups`.
    """
    if not jobs:
        raise ScheduleError("knapsack_groups requires at least one job")
    if capacity <= 0:
        raise ScheduleError(f"capacity must be positive, got {capacity}")
    if padding_multiple <= 0:
        raise ScheduleError(
            f"padding_multiple must be positive, got {padding_multiple}"
        )
    ids = [job.adapter_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ScheduleError(f"duplicate adapter ids in jobs: {ids}")
    # Stable item order before weighing: knapsack tie-breaks are by item
    # index, so index order must itself be deterministic.
    ordered = sorted(jobs, key=lambda job: job.adapter_id)
    masses = [_step_mass(job, capacity, padding_multiple) for job in ordered]
    groups = []
    for knapsack in greedy_knapsack(masses, capacity):
        group = [ordered[i] for i in knapsack]
        group.sort(key=lambda job: (job.mean_length(), job.adapter_id))
        groups.append(group)
    return groups


class StickyGrouper:
    """Cross-wave group stability: cache layouts keyed by live-set membership.

    The online orchestrator re-plans every wave from its live set.
    Recomputing groups each time lets a single arrival or retirement
    reshuffle every group, which breaks merge-pass adjacencies at wave
    boundaries and makes the merge discount unpredictable.  This cache
    pins the layout: as long as the live set holds the same adapter ids,
    :meth:`groups_for` replays the cached id-layout onto the wave's
    :class:`~repro.scheduler.types.JobWindow` slices.  A
    membership change computes a fresh :func:`knapsack_groups` layout and
    caches it under the new key, so every distinct live set has exactly
    one layout for the lifetime of the grouper.
    """

    def __init__(self) -> None:
        self._layouts: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}

    def groups_for(
        self,
        jobs: list[PlannedJob],
        capacity: int,
        padding_multiple: int = 64,
    ) -> list[list[PlannedJob]]:
        """The pinned group layout for this live set.

        Args:
            jobs: The wave's live jobs (unique adapter ids).
            capacity: Microbatch token capacity.
            padding_multiple: The tile granule ``P``.

        Returns:
            Groups in the same shape :func:`knapsack_groups` returns; for
            a repeated live set, the *identical* id-layout as the first
            wave, mapped onto this wave's jobs.
        """
        key = frozenset(job.adapter_id for job in jobs)
        if len(key) != len(jobs):
            ids = [job.adapter_id for job in jobs]
            raise ScheduleError(f"duplicate adapter ids in jobs: {ids}")
        layout = self._layouts.get(key)
        if layout is None:
            groups = knapsack_groups(jobs, capacity, padding_multiple)
            layout = tuple(
                tuple(job.adapter_id for job in group) for group in groups
            )
            self._layouts[key] = layout
            return groups
        by_id = {job.adapter_id: job for job in jobs}
        return [[by_id[aid] for aid in group] for group in layout]
