"""Greedy first-fit-decreasing bin packing: Algorithm 1's starting point.

The two-stage search starts from this packing and replaces it only with
a strictly better one, so where greedy is already optimal (or the search
runs out of nodes before finding better) it is the answer.  It is also
the baseline for the Section 6.5 ablation ("two-stage MILP optimization
provides an additional 3.82% improvement over pure greedy bin-packing").

The packing runs on integers: :func:`greedy_layout` keeps, per bin, each
adapter's raw tokens and the bin's padded load, and tests each placement
once.  Its answer is a layout -- which samples each bin holds, and each
bin's padded load -- that the search takes as its incumbent.
Microbatches are built from a layout only for the packing that wins
(:func:`microbatches_from_layout`).
"""

from __future__ import annotations

from repro.data.dataset import Sample
from repro.errors import CapacityError
from repro.scheduler.types import Assignment, Microbatch

__all__ = [
    "check_sample_fits_capacity",
    "greedy_layout",
    "greedy_pack",
    "microbatches_from_layout",
]


def check_sample_fits_capacity(
    sample: Sample, capacity: int, padding_multiple: int
) -> None:
    """Raise :class:`CapacityError` if a lone sample cannot fit any bin."""
    padded = -(-sample.length // padding_multiple) * padding_multiple
    if padded > capacity:
        raise CapacityError(
            f"sample of length {sample.length} (padded {padded}) exceeds "
            f"microbatch capacity {capacity}; raise the capacity or drop "
            "the sample"
        )


def greedy_layout(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
) -> tuple[list[list[int]], list[int]]:
    """First-fit-decreasing packing of one global batch, on integers.

    Args:
        samples: ``(sample, global_batch_index)`` pairs to pack.
        capacity: Token budget per microbatch (padded accounting).
        padding_multiple: Per-adapter padding granule ``P``.

    Returns:
        ``(members, loads)``: each bin's indices into ``samples`` in
        placement order, and each bin's padded tokens.  Samples are
        sorted by decreasing length and placed into the first bin that
        fits; a new bin opens when none does.
    """
    p = padding_multiple
    keys = [(-sample.length, sample.adapter_id, sample.index) for sample, _ in samples]
    order = sorted(range(len(samples)), key=keys.__getitem__)
    if order:  # the longest sample fits any bin only if every one does
        check_sample_fits_capacity(samples[order[0]][0], capacity, p)
    members: list[list[int]] = []
    tokens: list[dict[int, int]] = []  # per bin: raw tokens per adapter
    loads: list[int] = []
    for s in order:
        sample = samples[s][0]
        a, length = sample.adapter_id, sample.length
        for b, raw in enumerate(tokens):
            current = raw.get(a, 0)
            # Granules added: ceil((current + length) / p) - ceil(current / p).
            load = loads[b] + (-current // p - -(current + length) // p) * p
            if load <= capacity:
                break
        else:
            b, raw, current = len(loads), {}, 0
            load = -(-length // p) * p
            members.append([])
            tokens.append(raw)
            loads.append(0)
        raw[a] = current + length
        loads[b] = load
        members[b].append(s)
    return members, loads


def microbatches_from_layout(
    samples: list[tuple[Sample, int]],
    members: list[list[int]],
    capacity: int,
    padding_multiple: int,
) -> list[Microbatch]:
    """One microbatch per bin of a layout, each built once."""
    return [
        Microbatch(
            assignments=[Assignment(*samples[s]) for s in bin_members],
            capacity=capacity,
            padding_multiple=padding_multiple,
        )
        for bin_members in members
    ]


def greedy_pack(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
) -> list[Microbatch]:
    """First-fit-decreasing packing of one global batch into microbatches.

    The microbatches of :func:`greedy_layout`'s bins, in its bin order,
    each holding its samples in placement order.
    """
    members, _ = greedy_layout(samples, capacity, padding_multiple)
    return microbatches_from_layout(samples, members, capacity, padding_multiple)
