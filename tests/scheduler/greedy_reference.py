"""First-fit-decreasing on Microbatch objects: the reference greedy.

This is the packer as it was written before it moved to an integer
layout: every sample becomes an :class:`Assignment`, every bin a
:class:`Microbatch`, and placement asks each bin's ``fits`` in turn.
:func:`repro.scheduler.greedy.greedy_pack` must return the same bins,
in the same order, with the same assignments in the same order.
"""

from __future__ import annotations

from repro.data.dataset import Sample
from repro.scheduler.greedy import check_sample_fits_capacity
from repro.scheduler.types import Assignment, Microbatch


def reference_greedy_pack(
    samples: list[tuple[Sample, int]], capacity: int, padding_multiple: int
) -> list[Microbatch]:
    """Samples by decreasing length, each into the first bin that fits."""
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
