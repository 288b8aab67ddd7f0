"""The two-stage HiGHS MILP: the oracle the packing search is checked against.

:func:`two_stage` solves the paper's Equations 3 and 4 with scipy's
HiGHS backend (``scipy.optimize.milp``), the model the scheduler solved
before its branch-and-bound: stage 1 minimises the bins used, stage 2
fixes that count and minimises the smallest bin's padded tokens.  Its
objective values are what :func:`repro.scheduler.milp.milp_pack` must
reach; its layouts may differ wherever optimal packings tie.

Variable layout (stage 1), matching the paper's notation:

* ``x[s,b] in {0,1}``  -- sample ``s`` placed in bin ``b``;
* ``k[a,b] in N``      -- padded multiples adapter ``a`` contributes to bin
  ``b`` (``tokens_a,b <= k[a,b] * P``);
* ``z[b] in {0,1}``    -- bin ``b`` used, contiguous from the front.

Stage 2 drops ``z`` and adds the symmetry-breaking constraint that the
*last* bin is the smallest, which linearises "minimise the smallest bin"
without big-M terms (bins are interchangeable).

scipy is a development dependency only; the library never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.data.dataset import Sample
from repro.scheduler.types import Assignment, Microbatch


@dataclass
class ReferenceResult:
    """What the two stages reached on one instance.

    Attributes:
        microbatches: The packed bins, fullest first (None when the
            solver found no incumbent).
        num_bins: Bins used.
        min_bin_tokens: Padded tokens of the smallest bin.
        optimal: Whether both stages proved optimality.
    """

    microbatches: list[Microbatch] | None
    num_bins: int = 0
    min_bin_tokens: int = 0
    optimal: bool = False


def _adapter_index(samples: list[tuple[Sample, int]]) -> dict[int, int]:
    ids = sorted({sample.adapter_id for sample, _ in samples})
    return {adapter_id: i for i, adapter_id in enumerate(ids)}


def _solve(c, constraints, integrality, bounds, time_limit):
    # HiGHS's presolve can cut off the optimum and still report it proven
    # (e.g. a 6-bin instance whose greedy packing has a 896-token bin,
    # "proven" optimal at 1,152), so the oracle solves without it.
    options = {"presolve": False}
    if time_limit is not None:
        options["time_limit"] = time_limit
    return milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )


def _stage1(samples, capacity, p, max_bins, time_limit):
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
        time_limit=time_limit,
    )
    if result.x is None:
        return None, 0, False
    x = np.round(result.x[:nx]).reshape(ns, nb)
    used = int(np.round(result.x[nx + nk :].sum()))
    return x, used, result.status == 0


def _stage2(samples, capacity, p, num_bins, time_limit):
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
        time_limit=time_limit,
    )
    if result.x is None:
        return None, False
    return np.round(result.x[:nx]).reshape(ns, nb), result.status == 0


def _bins_from_assignment(x, samples, capacity, p) -> list[Microbatch] | None:
    """Materialise microbatches from a 0/1 assignment matrix."""
    bins: list[Microbatch] = []
    for b in range(x.shape[1]):
        members = [samples[s] for s in range(len(samples)) if x[s, b] > 0.5]
        if not members:
            continue
        mb = Microbatch(capacity=capacity, padding_multiple=p)
        for sample, batch_index in members:
            if not mb.fits(sample):
                return None  # solver artefact
            mb.add(Assignment(sample=sample, global_batch=batch_index))
        bins.append(mb)
    bins.sort(key=lambda mb: -mb.padded_tokens)
    return bins


def two_stage(
    samples: list[tuple[Sample, int]],
    capacity: int,
    padding_multiple: int,
    max_bins: int,
    time_limit: float | None = None,
) -> ReferenceResult:
    """Solve stage 1 into at most ``max_bins`` bins, then stage 2.

    Args:
        samples: ``(sample, global_batch_index)`` pairs.
        capacity: Microbatch token budget.
        padding_multiple: Padding granule ``P``.
        max_bins: Bins stage 1 may use (a feasible packing's count).
        time_limit: Per-stage HiGHS time limit in seconds; None solves
            each stage to optimality.
    """
    p = padding_multiple
    x1, used, opt1 = _stage1(samples, capacity, p, max_bins, time_limit)
    if x1 is None or used <= 0:
        return ReferenceResult(microbatches=None)
    x2, opt2 = _stage2(samples, capacity, p, used, time_limit)
    bins = _bins_from_assignment(x2 if x2 is not None else x1, samples, capacity, p)
    if bins is None:
        return ReferenceResult(microbatches=None)
    return ReferenceResult(
        microbatches=bins,
        num_bins=len(bins),
        min_bin_tokens=min(mb.padded_tokens for mb in bins),
        optimal=opt1 and x2 is not None and opt2,
    )
