"""Two-stage bin packing (Equations 3 and 4 of the paper), solved exactly.

Stage 1 minimises the number of microbatches needed to pack one global
batch's samples subject to per-adapter padding multiples and a token
capacity.  Stage 2 fixes that bin count and minimises the smallest bin's
padded tokens, leaving maximal room for the later merge pass.

Both stages are one integer branch-and-bound over the paper's model: a
bin's load is the sum over adapters of that adapter's tokens in it,
padded to a multiple of ``P``, and may not exceed the capacity.  The
search starts from greedy's bin loads as the incumbent and keeps only
strictly better packings, so its answer is never worse than greedy's
(Algorithm 1, lines 2-10).  It counts nodes, not seconds: the same
input gives the same packing on any machine.  When
:data:`SEARCH_NODE_BUDGET` runs out it returns the best packing found so
far and reports that stage 2 is not proven optimal.

The search stops as soon as it meets a proven stage-2 floor.  When no
packing into the current bin count can leave a bin empty -- the count
is :func:`bin_count_lower_bound`, or the padded volume ``V`` exceeds
``(count - 1) * capacity`` -- every bin holds at least the padded
shortest sample and at least ``V - (count - 1) * capacity`` tokens
(:func:`stage2_floor`).  A packing whose smallest bin meets the floor
cannot be beaten, so an incumbent that meets it is not searched and the
search returns at the first leaf that meets it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Sample
from repro.scheduler.greedy import microbatches_from_layout
from repro.scheduler.types import Microbatch

__all__ = ["MILPResult", "bin_count_lower_bound", "milp_pack", "stage2_floor"]

#: Placements one :func:`milp_pack` call may try before it stops with
#: the best packing found so far.  No offline-milp, fig21 or scheduler
#: test instance comes near it (the worst takes under 100k).
SEARCH_NODE_BUDGET = 1_000_000


@dataclass
class MILPResult:
    """Outcome of the two-stage search for one global batch.

    Attributes:
        microbatches: The packed bins, fullest first; None when no packing
            beats the incumbent and the caller keeps greedy's.
        num_bins: Bin count of the best packing (the incumbent's when
            ``microbatches`` is None).
        min_bin_tokens: Padded tokens of that packing's smallest bin.
        stage1_optimal: Whether no packing uses fewer bins.
        stage2_optimal: Whether no packing into ``num_bins`` bins has a
            smaller smallest bin (False when the node budget ran out).
        nodes: Placements the search tried, over all bin counts.
        stage2_nodes: Those tried at the final bin count: by the search
            that emptied no bin.  The rest found packings with fewer
            bins (stage 1).
    """

    microbatches: list[Microbatch] | None
    num_bins: int = 0
    min_bin_tokens: int = 0
    stage1_optimal: bool = False
    stage2_optimal: bool = False
    nodes: int = 0
    stage2_nodes: int = 0


def _padded(tokens: int, p: int) -> int:
    return -(-tokens // p) * p


def _bounds(
    samples: list[tuple[Sample, int]], capacity: int, p: int
) -> tuple[int, int]:
    """``(bins, volume)``: :func:`bin_count_lower_bound` and the padded
    volume, the tokens every packing holds at least."""
    totals: dict[int, int] = {}
    halves = 0
    for sample, _ in samples:
        totals[sample.adapter_id] = totals.get(sample.adapter_id, 0) + sample.length
        halves += 2 * sample.length > capacity
    volume = sum(_padded(tokens, p) for tokens in totals.values())
    return max(-(-volume // capacity), halves), volume


def bin_count_lower_bound(
    samples: list[tuple[Sample, int]], capacity: int, padding_multiple: int
) -> int:
    """Fewest bins any capacity-feasible packing of ``samples`` can use.

    The larger of two bounds: every adapter's tokens pad to at least
    ``ceil(T_a / P) * P`` in total however they split, and no two samples
    longer than half the capacity can share a bin.  (For an even
    ``capacity / P`` "longer than half" is the same as "padded to more
    than half"; for an odd one two same-adapter samples padded past half
    may still share.)
    """
    return _bounds(samples, capacity, padding_multiple)[0]


def stage2_floor(
    num_bins: int,
    capacity: int,
    lower_bound: int,
    volume: int,
    shortest: int,
) -> int:
    """Fewest padded tokens the smallest of ``num_bins`` bins can hold.

    Zero unless no packing into ``num_bins`` bins can leave one empty:
    ``num_bins`` is the ``lower_bound`` on the bin count, or the padded
    ``volume`` does not fit in one bin fewer.  Then every bin holds a
    sample, at least the padded ``shortest`` one, and the other bins
    hold at most ``(num_bins - 1) * capacity`` of the volume.
    """
    rest = (num_bins - 1) * capacity
    if num_bins > lower_bound and volume <= rest:
        return 0
    return max(shortest, volume - rest)


def _search(items, na, capacity, p, num_bins, smallest, floor, budget):
    """Find a ``num_bins``-bin packing whose smallest bin is under ``smallest``.

    Depth-first: ``items`` (``(length, adapter)``, longest first) go in
    one at a time, each into every bin it fits, and bins holding the
    same tokens per adapter -- empty ones included -- are tried once.
    Each leaf under the incumbent becomes the new incumbent.  A branch is
    cut when every bin has reached the incumbent, or when the padded
    volume it must still place cannot fit with one bin under it.  No
    leaf's smallest bin is under ``floor`` (zero, an empty bin, when no
    floor is proven), so the search stops at the first leaf that meets
    it.  The stack is explicit -- per open level, the next bin to try and
    the cut test's inputs, in flat lists indexed by item -- so no batch
    size reaches Python's recursion limit and no level costs a call.

    Returns:
        ``(best, nodes, exhausted)``: the best leaf as ``(where, loads)``
        -- item ``i``'s bin and each bin's padded tokens -- or None when
        none beat ``smallest``; the placements tried; and whether
        ``budget`` ran out first.
    """
    # remaining[i][a]: adapter a's tokens among items i onwards.
    remaining = [[0] * na]
    for length, a in reversed(items):
        row = list(remaining[-1])
        row[a] += length
        remaining.append(row)
    remaining.reverse()
    raw = [[0] * na for _ in range(num_bins)]
    load = [0] * num_bins
    padded = [0] * na  # per adapter: padded tokens summed over bins
    placed = [0] * na  # per adapter: raw tokens placed
    n = len(items)
    where = [0] * n
    growths = [0] * n
    # Per open level: the next bin to try, the bins' contents already
    # tried, and the inputs of the cut test (fixed while it is open).
    next_bin = [0] * n
    seens: list[set[tuple[int, ...]]] = [set()] * n
    lows = [0] * n
    spares = [0] * n
    best = None
    adapters = range(na)
    others = (num_bins - 1) * capacity - p
    last = n - 1
    nodes = 0
    i = 0
    opening = True
    while i >= 0:
        length, a = items[i]
        if opening:
            # Padded volume every completion needs: the slack already in
            # an adapter's padding may absorb its remaining tokens.
            volume = 0
            rest = remaining[i]
            for c in adapters:
                spill = rest[c] - padded[c] + placed[c]
                volume += padded[c] + (-(-spill // p) * p if spill > 0 else 0)
            lows[i] = min(load)
            spares[i] = others - volume
            next_bin[i] = 0
            seens[i] = set()
            opening = False
        low, spare, seen = lows[i], spares[i], seens[i]
        b = next_bin[i]
        growth = -1
        # Re-checked per bin: a leaf found below may have lowered
        # `smallest`.
        while b < num_bins and low < smallest and spare + smallest >= 0:
            row = raw[b]
            state = tuple(row)
            if state not in seen:
                seen.add(state)
                # Granules added: ceil((raw + length) / p) - ceil(raw / p).
                grown = (-row[a] // p - -(row[a] + length) // p) * p
                if load[b] + grown <= capacity:
                    growth = grown
                    break
            b += 1
        if growth < 0:  # level exhausted: take its parent's item out
            i -= 1
            if i >= 0:
                b, growth = where[i], growths[i]
                length, a = items[i]
                raw[b][a] -= length
                load[b] -= growth
                padded[a] -= growth
                placed[a] -= length
            continue
        next_bin[i] = b + 1
        nodes += 1
        if nodes > budget:
            return best, budget, True
        where[i] = b
        if i == last:  # a leaf: only the loads matter
            load[b] += growth
            if min(load) < smallest:
                best, smallest = (list(where), list(load)), min(load)
                if smallest <= floor:
                    return best, nodes, False
            load[b] -= growth
            continue
        growths[i] = growth
        raw[b][a] += length
        load[b] += growth
        padded[a] += growth
        placed[a] += length
        i += 1
        opening = True
    return best, nodes, False


def milp_pack(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    incumbent: list[int],
) -> MILPResult:
    """Solve both stages for one global batch, starting from ``incumbent``.

    Stage 2 searches at the incumbent's bin count for a smaller smallest
    bin.  A packing with an empty bin is a stage-1 win: its empty bins
    are dropped and the search runs again at the new count, from that
    packing's smallest bin.  No search runs at a count where the
    incumbent's smallest bin already meets :func:`stage2_floor`.

    Args:
        samples: ``(sample, global_batch_index)`` pairs.
        capacity: Microbatch token budget.
        padding_multiple: Padding granule ``P``.
        incumbent: Padded loads of a capacity-feasible packing of
            ``samples``, one per bin -- greedy's.

    Returns:
        A :class:`MILPResult`; ``microbatches`` is None when no packing
        beats the incumbent on (bins, smallest bin).
    """
    p = padding_multiple
    num_bins = len(incumbent)
    smallest = min(incumbent, default=0)
    ids = sorted({sample.adapter_id for sample, _ in samples})
    adapter = {adapter_id: i for i, adapter_id in enumerate(ids)}
    keys = sorted(
        (-sample.length, adapter[sample.adapter_id], s)
        for s, (sample, _) in enumerate(samples)
    )
    order = [s for _, _, s in keys]
    items = [(-neg_length, a) for neg_length, a, _ in keys]
    lower_bound, volume = _bounds(samples, capacity, p)
    shortest = _padded(items[-1][0], p) if items else 0
    best_where = None
    nodes = stage2_nodes = 0
    exhausted = False
    while num_bins > 1:
        floor = stage2_floor(num_bins, capacity, lower_bound, volume, shortest)
        if smallest <= floor:
            break
        best, used, exhausted = _search(
            items, len(ids), capacity, p, num_bins, smallest, floor,
            SEARCH_NODE_BUDGET - nodes,
        )
        nodes += used
        if best is None:
            stage2_nodes = used
            break
        where, loads = best
        # Number the used bins densely, dropping any empty ones.
        dense = {b: k for k, b in enumerate(sorted(set(where)))}
        best_where = [dense[b] for b in where]
        smallest = min(loads[b] for b in dense)
        emptied = len(dense) < num_bins
        num_bins = len(dense)
        if exhausted or not emptied:
            stage2_nodes = used
            break
        # Fewer bins suffice: search again at the new count.
    result = MILPResult(
        microbatches=None,
        num_bins=num_bins,
        min_bin_tokens=smallest,
        stage1_optimal=not exhausted or num_bins == lower_bound,
        stage2_optimal=not exhausted,
        nodes=nodes,
        stage2_nodes=stage2_nodes,
    )
    if best_where is None:
        return result
    members: list[list[int]] = [[] for _ in range(num_bins)]
    for s, b in sorted(zip(order, best_where)):
        members[b].append(s)
    bins = microbatches_from_layout(samples, members, capacity, p)
    # Fullest first, so the final (mergeable) bin is the smallest.
    bins.sort(key=lambda mb: -mb.padded_tokens)
    result.microbatches = bins
    return result
