"""Greedy first-fit-decreasing bin packing: Algorithm 1's starting point.

The two-stage search starts from this packing and replaces it only with
a strictly better one, so where greedy is already optimal (or the search
runs out of nodes before finding better) it is the answer.  It is also
the baseline for the Section 6.5 ablation ("two-stage MILP optimization
provides an additional 3.82% improvement over pure greedy bin-packing").
"""

from __future__ import annotations

import math

from repro.data.dataset import Sample
from repro.errors import CapacityError
from repro.scheduler.types import Assignment, Microbatch

__all__ = ["greedy_pack", "check_sample_fits_capacity"]


def check_sample_fits_capacity(
    sample: Sample, capacity: int, padding_multiple: int
) -> None:
    """Raise :class:`CapacityError` if a lone sample cannot fit any bin."""
    padded = math.ceil(sample.length / padding_multiple) * padding_multiple
    if padded > capacity:
        raise CapacityError(
            f"sample of length {sample.length} (padded {padded}) exceeds "
            f"microbatch capacity {capacity}; raise the capacity or drop "
            "the sample"
        )


def greedy_pack(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
) -> list[Microbatch]:
    """First-fit-decreasing packing of one global batch into microbatches.

    Args:
        samples: ``(sample, global_batch_index)`` pairs to pack.
        capacity: Token budget per microbatch (padded accounting).
        padding_multiple: Per-adapter padding granule ``P``.

    Returns:
        Microbatches, each within capacity.  Samples are sorted by
        decreasing length and placed into the first bin that fits; a new
        bin opens when none does.
    """
    for sample, _ in samples:
        check_sample_fits_capacity(sample, capacity, padding_multiple)
    ordered = sorted(
        samples,
        key=lambda pair: (-pair[0].length, pair[0].adapter_id, pair[0].index),
    )
    bins: list[Microbatch] = []
    for sample, batch_index in ordered:
        assignment = Assignment(sample=sample, global_batch=batch_index)
        for bin_ in bins:
            if bin_.fits(sample):
                bin_.add(assignment)
                break
        else:
            bin_ = Microbatch(capacity=capacity, padding_multiple=padding_multiple)
            bin_.add(assignment)
            bins.append(bin_)
    return bins
