"""Two-stage MILP bin packing (Equations 3 and 4 of the paper).

Stage 1 minimises the number of microbatches needed to pack one global
batch's samples subject to per-adapter padding multiples and a token
capacity.  Stage 2 fixes that bin count and minimises the smallest bin's
padded token count, leaving maximal room for the later merge pass.

Both stages are solved with scipy's HiGHS backend (``scipy.optimize.milp``)
under a configurable time limit; the caller falls back to greedy packing
when the MILP is proven no better before solving, or when the solver
fails, times out without an incumbent, or is no better (Algorithm 1,
lines 2-10).

Two certificates let a caller skip solves whose outcome is already known:

* :func:`bin_count_lower_bound` -- no packing uses fewer bins.  When
  greedy's bin count meets it, stage 1 has nothing to find and
  :func:`milp_pack` goes straight to stage 2 with greedy's count.
* :func:`proves_no_win` -- an exact, node-budgeted search showing that no
  packing into greedy's bin count has a bin smaller than greedy's
  smallest.  The MILP's packing would then be discarded, so the caller
  keeps greedy without solving.

Variable layout (stage 1), matching the paper's notation:

* ``x[s,b] in {0,1}``  -- sample ``s`` placed in bin ``b``;
* ``k[a,b] in N``      -- padded multiples adapter ``a`` contributes to bin
  ``b`` (``tokens_a,b <= k[a,b] * P``);
* ``z[b] in {0,1}``    -- bin ``b`` used, contiguous from the front.

Stage 2 drops ``z`` and adds the symmetry-breaking constraint that the
*last* bin is the smallest, which linearises "minimise the smallest bin"
without big-M terms (bins are interchangeable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.data.dataset import Sample
from repro.scheduler.types import Assignment, Microbatch

__all__ = ["MILPResult", "bin_count_lower_bound", "milp_pack", "proves_no_win"]

#: Placements :func:`proves_no_win` may try before it gives up undecided
#: and leaves the question to the MILP.  Every instance the MILP loses in
#: the offline-milp benchmark (seeds 1 and 41) proves in under 100.
NO_WIN_NODE_BUDGET = 2000


@dataclass
class MILPResult:
    """Outcome of the two-stage MILP for one global batch.

    Attributes:
        microbatches: The packed bins (None when the solver produced
            nothing usable and the caller must fall back to greedy).
        num_bins: Bin count of the stage-1 solution.
        min_bin_tokens: Padded tokens of the smallest bin after stage 2.
        stage1_optimal: Whether stage 1 proved optimality.
        stage2_optimal: Whether stage 2 proved optimality.
    """

    microbatches: list[Microbatch] | None
    num_bins: int = 0
    min_bin_tokens: int = 0
    stage1_optimal: bool = False
    stage2_optimal: bool = False


def _adapter_index(samples: list[tuple[Sample, int]]) -> dict[int, int]:
    ids = sorted({sample.adapter_id for sample, _ in samples})
    return {adapter_id: i for i, adapter_id in enumerate(ids)}


def _solve(c, constraints, integrality, bounds, timeout):
    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"time_limit": timeout, "presolve": True},
    )
    return result


def _stage1(
    samples: list[tuple[Sample, int]],
    capacity: int,
    p: int,
    max_bins: int,
    timeout: float,
):
    """Minimise used bins; returns (x matrix, used bin count, optimal?)."""
    adapters = _adapter_index(samples)
    ns, na, nb = len(samples), len(adapters), max_bins
    nx, nk = ns * nb, na * nb
    n_vars = nx + nk + nb
    k_max = capacity // p

    def xi(s: int, b: int) -> int:
        return s * nb + b

    def ki(a: int, b: int) -> int:
        return nx + a * nb + b

    def zi(b: int) -> int:
        return nx + nk + b

    rows, cols, vals = [], [], []
    lbs, ubs = [], []
    row = 0

    # (1) each sample in exactly one bin.
    for s in range(ns):
        for b in range(nb):
            rows.append(row), cols.append(xi(s, b)), vals.append(1.0)
        lbs.append(1.0), ubs.append(1.0)
        row += 1
    # (2) adapter tokens respect padded multiples: sum len*x - P*k <= 0.
    for (a_id, a) in adapters.items():
        for b in range(nb):
            for s, (sample, _) in enumerate(samples):
                if sample.adapter_id == a_id:
                    rows.append(row), cols.append(xi(s, b))
                    vals.append(float(sample.length))
            rows.append(row), cols.append(ki(a, b)), vals.append(-float(p))
            lbs.append(-np.inf), ubs.append(0.0)
            row += 1
    # (3) capacity: sum_a P*k - C*z <= 0, and (4) z <= sum_a P*k.
    for b in range(nb):
        for a in range(na):
            rows.append(row), cols.append(ki(a, b)), vals.append(float(p))
        rows.append(row), cols.append(zi(b)), vals.append(-float(capacity))
        lbs.append(-np.inf), ubs.append(0.0)
        row += 1
    for b in range(nb):
        rows.append(row), cols.append(zi(b)), vals.append(1.0)
        for a in range(na):
            rows.append(row), cols.append(ki(a, b)), vals.append(-float(p))
        lbs.append(-np.inf), ubs.append(0.0)
        row += 1
    # (5) used bins are contiguous: z[b+1] <= z[b].
    for b in range(nb - 1):
        rows.append(row), cols.append(zi(b + 1)), vals.append(1.0)
        rows.append(row), cols.append(zi(b)), vals.append(-1.0)
        lbs.append(-np.inf), ubs.append(0.0)
        row += 1

    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(row, n_vars))
    c = np.zeros(n_vars)
    c[nx + nk :] = 1.0
    lower = np.zeros(n_vars)
    upper = np.concatenate(
        [np.ones(nx), np.full(nk, float(k_max)), np.ones(nb)]
    )
    result = _solve(
        c,
        LinearConstraint(matrix, lbs, ubs),
        integrality=np.ones(n_vars),
        bounds=Bounds(lower, upper),
        timeout=timeout,
    )
    if result.x is None:
        return None, 0, False
    x = np.round(result.x[:nx]).reshape(ns, nb)
    used = int(np.round(result.x[nx + nk :].sum()))
    return x, used, result.status == 0


def _stage2(
    samples: list[tuple[Sample, int]],
    capacity: int,
    p: int,
    num_bins: int,
    timeout: float,
):
    """Fix the bin count; minimise the last (smallest) bin's padded tokens."""
    adapters = _adapter_index(samples)
    ns, na, nb = len(samples), len(adapters), num_bins
    nx, nk = ns * nb, na * nb
    n_vars = nx + nk
    k_max = capacity // p

    def xi(s: int, b: int) -> int:
        return s * nb + b

    def ki(a: int, b: int) -> int:
        return nx + a * nb + b

    rows, cols, vals = [], [], []
    lbs, ubs = [], []
    row = 0
    for s in range(ns):
        for b in range(nb):
            rows.append(row), cols.append(xi(s, b)), vals.append(1.0)
        lbs.append(1.0), ubs.append(1.0)
        row += 1
    for (a_id, a) in adapters.items():
        for b in range(nb):
            for s, (sample, _) in enumerate(samples):
                if sample.adapter_id == a_id:
                    rows.append(row), cols.append(xi(s, b))
                    vals.append(float(sample.length))
            rows.append(row), cols.append(ki(a, b)), vals.append(-float(p))
            lbs.append(-np.inf), ubs.append(0.0)
            row += 1
    for b in range(nb):
        for a in range(na):
            rows.append(row), cols.append(ki(a, b)), vals.append(float(p))
        lbs.append(-np.inf), ubs.append(float(capacity))
        row += 1
    # Symmetry break: the last bin is (weakly) the smallest.
    for b in range(nb - 1):
        for a in range(na):
            rows.append(row), cols.append(ki(a, nb - 1)), vals.append(1.0)
            rows.append(row), cols.append(ki(a, b)), vals.append(-1.0)
        lbs.append(-np.inf), ubs.append(0.0)
        row += 1

    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(row, n_vars))
    c = np.zeros(n_vars)
    for a in range(na):
        c[ki(a, nb - 1)] = float(p)
    lower = np.zeros(n_vars)
    upper = np.concatenate([np.ones(nx), np.full(nk, float(k_max))])
    result = _solve(
        c,
        LinearConstraint(matrix, lbs, ubs),
        integrality=np.ones(n_vars),
        bounds=Bounds(lower, upper),
        timeout=timeout,
    )
    if result.x is None:
        return None, False
    return np.round(result.x[:nx]).reshape(ns, nb), result.status == 0


def _bins_from_assignment(
    x: np.ndarray,
    samples: list[tuple[Sample, int]],
    capacity: int,
    p: int,
) -> list[Microbatch] | None:
    """Materialise microbatches from a 0/1 assignment matrix."""
    nb = x.shape[1]
    bins: list[Microbatch] = []
    for b in range(nb):
        members = [samples[s] for s in range(len(samples)) if x[s, b] > 0.5]
        if not members:
            continue
        mb = Microbatch(capacity=capacity, padding_multiple=p)
        for sample, batch_index in members:
            if not mb.fits(sample):
                return None  # solver artefact; caller falls back to greedy
            mb.add(Assignment(sample=sample, global_batch=batch_index))
        bins.append(mb)
    # Order bins fullest-first so the final (mergeable) bin is the smallest.
    bins.sort(key=lambda mb: -mb.padded_tokens)
    return bins


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


def proves_no_win(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    num_bins: int,
    smallest: int,
) -> bool:
    """Prove that no ``num_bins``-bin packing has a bin under ``smallest``.

    An exact depth-first search: samples go in by decreasing length, each
    into every bin it fits (per-adapter padded loads, as in the MILP), and
    bins holding the same tokens per adapter -- empty ones included -- are
    tried once.  A branch is cut when every bin has reached ``smallest``,
    or when the padded volume it must still place cannot fit with one bin
    left under ``smallest``.  Empty bins count as bins under ``smallest``,
    so a proof also rules out packings into fewer bins.

    Returns:
        True when the search proves it: then the MILP can neither use
        fewer bins nor find a smaller smallest bin than the greedy
        packing this describes, and Algorithm 1 would discard its answer.
        False when it finds such a packing, or gives up after
        :data:`NO_WIN_NODE_BUDGET` placements.
    """
    p = padding_multiple
    adapters = _adapter_index(samples)
    na = len(adapters)
    items = sorted(
        ((sample.length, adapters[sample.adapter_id]) for sample, _ in samples),
        reverse=True,
    )
    # remaining[i][a]: adapter a's tokens among items i onwards.
    remaining = [[0] * na]
    for length, a in reversed(items):
        row = list(remaining[-1])
        row[a] += length
        remaining.append(row)
    remaining.reverse()
    raw = [[0] * na for _ in range(num_bins)]
    load = [0] * num_bins
    # Total padded tokens a packing with one bin under `smallest` can hold.
    ceiling = (num_bins - 1) * capacity + smallest - p

    def moves(i: int) -> list[tuple[int, int]]:
        """``(bin, growth)`` placements of item ``i`` worth trying."""
        if min(load) >= smallest:
            return []
        volume = 0
        for a in range(na):
            padded = slack = 0
            for row in raw:
                q = _padded(row[a], p)
                padded += q
                slack += q - row[a]
            volume += padded + _padded(max(0, remaining[i][a] - slack), p)
        if volume > ceiling:
            return []
        length, a = items[i]
        seen: set[tuple[int, ...]] = set()
        out = []
        for b, row in enumerate(raw):
            state = tuple(row)
            if state in seen:
                continue
            seen.add(state)
            growth = _padded(row[a] + length, p) - _padded(row[a], p)
            if load[b] + growth <= capacity:
                out.append((b, growth))
        return out

    if not items or num_bins <= 0:
        return False
    stack = [iter(moves(0))]
    placed: list[tuple[int, int]] = []
    nodes = 0
    while stack:
        depth = len(stack) - 1
        length, a = items[depth]
        if len(placed) > depth:  # back from the level below: undo
            b, growth = placed.pop()
            raw[b][a] -= length
            load[b] -= growth
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > NO_WIN_NODE_BUDGET:
            return False
        b, growth = move
        raw[b][a] += length
        load[b] += growth
        placed.append(move)
        if depth + 1 < len(items):
            stack.append(iter(moves(depth + 1)))
        elif min(load) < smallest:
            return False
    return True


def milp_pack(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    max_bins: int,
    timeout: float = 2.0,
) -> MILPResult:
    """Run the two-stage MILP on one global batch.

    Args:
        samples: ``(sample, global_batch_index)`` pairs.
        capacity: Microbatch token budget.
        padding_multiple: Padding granule ``P``.
        max_bins: Upper bound on bins -- use the greedy solution's count,
            since a worse-than-greedy solution would be discarded anyway.
            When it meets :func:`bin_count_lower_bound`, stage 1 is skipped.
        timeout: Per-stage HiGHS time limit in seconds.

    Returns:
        A :class:`MILPResult`; ``microbatches`` is None when the caller
        should fall back to greedy packing.
    """
    if not samples or max_bins <= 0:
        return MILPResult(microbatches=None)
    if max_bins == 1:
        # A single greedy bin is already optimal in count; stage 2 cannot
        # improve a one-bin packing either.
        return MILPResult(microbatches=None)

    if bin_count_lower_bound(samples, capacity, padding_multiple) == max_bins:
        # No packing uses fewer bins: stage 1 would return max_bins.
        x1, used, opt1 = None, max_bins, True
    else:
        x1, used, opt1 = _stage1(
            samples, capacity, padding_multiple, max_bins, timeout
        )
        if x1 is None or used <= 0:
            return MILPResult(microbatches=None)

    x2, opt2 = _stage2(samples, capacity, padding_multiple, used, timeout)
    x_final = x2 if x2 is not None else x1
    if x_final is None:
        return MILPResult(microbatches=None)
    bins = _bins_from_assignment(x_final, samples, capacity, padding_multiple)
    if bins is None:
        return MILPResult(microbatches=None)
    min_tokens = min(mb.padded_tokens for mb in bins)
    return MILPResult(
        microbatches=bins,
        num_bins=len(bins),
        min_bin_tokens=min_tokens,
        stage1_optimal=opt1,
        stage2_optimal=x2 is not None and opt2,
    )
