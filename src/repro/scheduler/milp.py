"""Two-stage bin packing (Equations 3 and 4 of the paper), solved exactly.

Stage 1 minimises the number of microbatches needed to pack one global
batch's samples subject to per-adapter padding multiples and a token
capacity.  Stage 2 fixes that bin count and minimises the smallest bin's
padded tokens, leaving maximal room for the later merge pass.

Both stages are one integer branch-and-bound over the paper's model: a
bin's load is the sum over adapters of that adapter's tokens in it,
padded to a multiple of ``P``, and may not exceed the capacity.  The
search starts from greedy's packing as the incumbent and keeps only
strictly better packings, so its answer is never worse than greedy's
(Algorithm 1, lines 2-10).  It counts nodes, not seconds: the same
input gives the same packing on any machine.  When
:data:`SEARCH_NODE_BUDGET` runs out it returns the best packing found so
far and reports that stage 2 is not proven optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Sample
from repro.scheduler.types import Assignment, Microbatch

__all__ = ["MILPResult", "bin_count_lower_bound", "milp_pack"]

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
        nodes: Placements the search tried.
    """

    microbatches: list[Microbatch] | None
    num_bins: int = 0
    min_bin_tokens: int = 0
    stage1_optimal: bool = False
    stage2_optimal: bool = False
    nodes: int = 0


def _padded(tokens: int, p: int) -> int:
    return -(-tokens // p) * p


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
    totals: dict[int, int] = {}
    for sample, _ in samples:
        totals[sample.adapter_id] = totals.get(sample.adapter_id, 0) + sample.length
    volume = sum(_padded(tokens, padding_multiple) for tokens in totals.values())
    halves = sum(1 for sample, _ in samples if 2 * sample.length > capacity)
    return max(-(-volume // capacity), halves)


def _search(items, na, capacity, p, num_bins, smallest, budget):
    """Find a ``num_bins``-bin packing whose smallest bin is under ``smallest``.

    Depth-first: ``items`` (``(length, adapter)``, longest first) go in
    one at a time, each into every bin it fits, and bins holding the
    same tokens per adapter -- empty ones included -- are tried once.
    Each leaf under the incumbent becomes the new incumbent.  A branch is
    cut when every bin has reached the incumbent, or when the padded
    volume it must still place cannot fit with one bin under it.  An
    empty bin is the smallest possible, so the search stops at the first
    leaf that has one.  The stack is explicit, one generator of
    placements per item, so no batch size reaches Python's recursion
    limit.

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
    where = [0] * len(items)
    best = None

    def branches(i: int):
        """``(bin, growth)`` placements of item ``i`` worth trying."""
        # Padded volume every completion needs: the slack already in an
        # adapter's padding may absorb its remaining tokens.
        volume = 0
        for c in range(na):
            spill = remaining[i][c] - (padded[c] - placed[c])
            volume += padded[c] + (_padded(spill, p) if spill > 0 else 0)
        spare = (num_bins - 1) * capacity - p - volume
        low = min(load)
        length, a = items[i]
        seen: set[tuple[int, ...]] = set()
        for b, row in enumerate(raw):
            # Re-checked per branch: a leaf found below may have
            # lowered `smallest`.
            if low >= smallest or spare + smallest < 0:
                return
            state = tuple(row)
            if state in seen:
                continue
            seen.add(state)
            # Granules added: ceil((raw + length) / p) - ceil(raw / p).
            growth = (-row[a] // p - -(row[a] + length) // p) * p
            if load[b] + growth <= capacity:
                yield b, growth

    last = len(items) - 1
    stack = [branches(0)]
    moves: list[tuple[int, int]] = []  # (bin, growth) of each open level
    nodes = 0
    while stack:
        move = next(stack[-1], None)
        if move is None:  # level exhausted: take its parent's item out
            stack.pop()
            if moves:
                b, growth = moves.pop()
                length, a = items[len(moves)]
                raw[b][a] -= length
                load[b] -= growth
                padded[a] -= growth
                placed[a] -= length
            continue
        nodes += 1
        if nodes > budget:
            return best, budget, True
        i = len(moves)
        b, growth = move
        where[i] = b
        if i == last:  # a leaf: only the loads matter
            load[b] += growth
            if min(load) < smallest:
                best, smallest = (list(where), list(load)), min(load)
            load[b] -= growth
            continue
        length, a = items[i]
        raw[b][a] += length
        load[b] += growth
        padded[a] += growth
        placed[a] += length
        moves.append(move)
        stack.append(branches(i + 1))
    return best, nodes, False


def milp_pack(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    incumbent: list[Microbatch],
) -> MILPResult:
    """Solve both stages for one global batch, starting from ``incumbent``.

    Stage 2 searches at the incumbent's bin count for a smaller smallest
    bin.  A packing with an empty bin is a stage-1 win: its empty bins
    are dropped and the search runs again at the new count, from that
    packing's smallest bin.

    Args:
        samples: ``(sample, global_batch_index)`` pairs.
        capacity: Microbatch token budget.
        padding_multiple: Padding granule ``P``.
        incumbent: A capacity-feasible packing of ``samples`` -- greedy's.

    Returns:
        A :class:`MILPResult`; ``microbatches`` is None when no packing
        beats the incumbent on (bins, smallest bin).
    """
    p = padding_multiple
    num_bins = len(incumbent)
    smallest = min((mb.padded_tokens for mb in incumbent), default=0)
    ids = sorted({sample.adapter_id for sample, _ in samples})
    adapter = {adapter_id: i for i, adapter_id in enumerate(ids)}
    order = sorted(
        range(len(samples)),
        key=lambda s: (-samples[s][0].length, adapter[samples[s][0].adapter_id], s),
    )
    items = [
        (samples[s][0].length, adapter[samples[s][0].adapter_id]) for s in order
    ]
    floor = bin_count_lower_bound(samples, capacity, p)
    best_where = None
    nodes = 0
    exhausted = False
    while num_bins > 1:
        best, used, exhausted = _search(
            items, len(ids), capacity, p, num_bins, smallest,
            SEARCH_NODE_BUDGET - nodes,
        )
        nodes += used
        if best is None:
            break
        where, loads = best
        # Number the used bins densely, dropping any empty ones.
        dense = {b: k for k, b in enumerate(sorted(set(where)))}
        best_where = [dense[b] for b in where]
        smallest = min(loads[b] for b in dense)
        emptied = len(dense) < num_bins
        num_bins = len(dense)
        if exhausted or not emptied:
            break
        # Fewer bins suffice: search again at the new count.
    result = MILPResult(
        microbatches=None,
        num_bins=num_bins,
        min_bin_tokens=smallest,
        stage1_optimal=not exhausted or num_bins == floor,
        stage2_optimal=not exhausted,
        nodes=nodes,
    )
    if best_where is None:
        return result
    bins = [Microbatch(capacity=capacity, padding_multiple=p) for _ in range(num_bins)]
    bin_of = dict(zip(order, best_where))
    for s, (sample, batch_index) in enumerate(samples):
        bins[bin_of[s]].add(Assignment(sample=sample, global_batch=batch_index))
    # Fullest first, so the final (mergeable) bin is the smallest.
    bins.sort(key=lambda mb: -mb.padded_tokens)
    result.microbatches = bins
    return result
