"""The packing search as a stack of generators: the reference search.

This is :func:`repro.scheduler.milp._search` as it was written before
its per-node work was trimmed: each open level is a generator of the
placements worth trying.  The trimmed search keeps the same visit
order, so on every input it must return the same ``(best, nodes,
exhausted)``: the same best leaf, found after the same number of
placements.
"""

from __future__ import annotations


def reference_search(items, na, capacity, p, num_bins, smallest, floor, budget):
    """Find a ``num_bins``-bin packing whose smallest bin is under ``smallest``.

    Depth-first: ``items`` (``(length, adapter)``, longest first) go in
    one at a time, each into every bin it fits, and bins holding the
    same tokens per adapter -- empty ones included -- are tried once.
    Each leaf under the incumbent becomes the new incumbent.  A branch is
    cut when every bin has reached the incumbent, or when the padded
    volume it must still place cannot fit with one bin under it.  No
    leaf's smallest bin is under ``floor`` (zero, an empty bin, when no
    floor is proven), so the search stops at the first leaf that meets
    it.  The stack is explicit, one generator of placements per item, so
    no batch size reaches Python's recursion limit.

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
            volume += padded[c] + (-(-spill // p) * p if spill > 0 else 0)
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
                if smallest <= floor:
                    return best, nodes, False
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
