"""The bubble lemma: dependency verification and no-op restoration.

Section 5.2 defines the bubble lemma for an ``S``-stage pipeline: if a
sample of adapter ``i``'s global batch ``j`` is committed at microbatch
``k``, no sample of batch ``j+1`` of the same adapter may be committed
before microbatch ``k + S - 1`` -- that is the earliest point at which the
batch-``j`` backward pass (and hence adapter ``i``'s optimizer step) can
have completed.

Verification scans the schedule; fixing inserts no-op microbatches before
the violating position (Algorithm 1, line 15), trading a bubble for
correctness, exactly as the paper's VerifyAndFix step does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduler.types import Microbatch

__all__ = ["BubbleViolation", "dependency_gap", "find_violations", "insert_noops"]


@dataclass(frozen=True)
class BubbleViolation:
    """One bubble-lemma violation found in a schedule.

    Attributes:
        adapter_id: The adapter whose dependency is violated.
        batch: The *later* global batch (``j+1``).
        position: Microbatch index where batch ``j+1`` first appears.
        required: Earliest legal index (``last(j) + S - 1``).
    """

    adapter_id: int
    batch: int
    position: int
    required: int


def dependency_gap(num_stages: int) -> int:
    """Minimum microbatch distance between consecutive batches of an adapter.

    The paper's lemma gives ``S - 1``.  We use ``S``: our executor replays
    Megatron's static fwd-first 1F1B slot order, under which stage 0 issues
    ``F(i)`` immediately after ``B(i - S)``, so a forward may only depend
    on a backward at least ``S`` slots earlier (one extra slot versus the
    lemma -- negligible in time, and strictly safe).  We also require at
    least 1 so that two consecutive global batches of one adapter can never
    share a microbatch (the later batch must see post-optimizer-step
    weights even without a pipeline).
    """
    return max(1, num_stages)


def _batch_spans(
    microbatches: list[Microbatch],
) -> dict[tuple[int, int], tuple[int, int]]:
    """First/last microbatch index of every (adapter, global batch)."""
    spans: dict[tuple[int, int], tuple[int, int]] = {}
    for position, mb in enumerate(microbatches):
        for adapter_id, batches in mb.batches_by_adapter().items():
            for batch in batches:
                key = (adapter_id, batch)
                if key in spans:
                    spans[key] = (spans[key][0], position)
                else:
                    spans[key] = (position, position)
    return spans


def find_violations(
    microbatches: list[Microbatch], num_stages: int
) -> list[BubbleViolation]:
    """All bubble-lemma violations in execution order."""
    spans = _batch_spans(microbatches)
    violations = []
    for (adapter_id, batch), (first, _) in sorted(spans.items()):
        prev = spans.get((adapter_id, batch - 1))
        if prev is None:
            continue
        required = prev[1] + dependency_gap(num_stages)
        if first < required:
            violations.append(
                BubbleViolation(
                    adapter_id=adapter_id,
                    batch=batch,
                    position=first,
                    required=required,
                )
            )
    return violations


def insert_noops(
    microbatches: list[Microbatch],
    num_stages: int,
    initial_last: dict[tuple[int, int], int] | None = None,
    start_position: int = 0,
) -> tuple[list[Microbatch], int]:
    """Restore the bubble lemma by inserting no-op microbatches.

    Scans the schedule once.  Before emitting a microbatch that would start
    some adapter's batch ``j+1`` too early, enough no-ops are emitted to
    push it to its earliest legal position.  Assumes each adapter's batch
    indices appear in non-decreasing execution order, which the scheduler's
    group-interleaved assembly and merge pass guarantee.

    The online splicer passes the in-flight stream's state so that a new
    window is spaced correctly against work already submitted:

    Args:
        microbatches: The (window's) microbatches, in execution order.
        num_stages: Pipeline depth.
        initial_last: Last emitted position of each ``(adapter, batch)``
            in the stream *before* these microbatches, in stream-global
            coordinates.  Updated in place with the new positions.
        start_position: Stream-global position the first microbatch here
            will occupy (the current stream length).

    Returns:
        ``(schedule, inserted_count)``.
    """
    gap = dependency_gap(num_stages)
    output: list[Microbatch] = []
    last_position = initial_last if initial_last is not None else {}
    inserted = 0
    for mb in microbatches:
        required = start_position + len(output)
        batches_by_adapter = mb.batches_by_adapter()
        for adapter_id, batches in batches_by_adapter.items():
            for batch in batches:
                prev = last_position.get((adapter_id, batch - 1))
                if prev is not None:
                    required = max(required, prev + gap)
        while start_position + len(output) < required:
            output.append(
                Microbatch(
                    capacity=mb.capacity,
                    padding_multiple=mb.padding_multiple,
                    group=mb.group,
                    step=mb.step,
                    plan_id=mb.plan_id,
                )
            )
            inserted += 1
        position = start_position + len(output)
        output.append(mb)
        for adapter_id, batches in batches_by_adapter.items():
            for batch in batches:
                last_position[(adapter_id, batch)] = position
    return output, inserted
