"""Shared test utilities: numerical gradients and common fixtures."""

from __future__ import annotations

import numpy as np


def numerical_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(x)
        flat[i] = orig - eps
        f_minus = f(x)
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error between two arrays (safe near zero)."""
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def batch_order(microbatches, adapter_id: int) -> list[int]:
    """``adapter_id``'s global batch of each of its samples, in stream order."""
    return [
        a.global_batch
        for mb in microbatches
        for a in mb.assignments
        if a.adapter_id == adapter_id
    ]


def fingerprint(run, replica_set=None):
    """Everything observable about a serving run, as one exact structure.

    ``run`` is either a fleet's
    :class:`~repro.serve.metrics.ReplicaSetResult` -- then ``replica_set``
    (the set that produced it) is required for the router assignments
    and the per-replica microbatch streams -- or a bare ``{adapter_id:
    JobRecord}`` mapping from orchestrator-level runs, which yields the
    ``records`` section alone.  Compared with ``==`` (atol=0, never
    approx).

    ``events_processed`` is left out: a recorded gateway session counts
    ``GATEWAY_INGRESS`` where its replay counts ``ARRIVAL``, and the
    lockstep reference loop processes no events at all.  The golden
    corpus pins the event counts beside this fingerprint instead.
    """
    records = run if isinstance(run, dict) else run.records
    fields = {
        "records": {
            aid: (
                record.arrival_time,
                record.admit_time,
                record.first_scheduled_time,
                record.finish_time,
                record.rejected_time,
                record.outcome,
                record.replica,
                record.migrations,
                record.preemptions,
                record.num_batches,
                record.total_tokens,
            )
            for aid, record in sorted(records.items())
        },
    }
    if isinstance(run, dict):
        return fields
    if replica_set is None:
        raise TypeError("a fleet fingerprint needs the replica set")
    fields.update(
        counters=(
            run.migrations,
            run.reroutes,
            run.rebalance_drains,
            run.drain_steps_saved,
            run.violations,
            run.total_tokens,
            run.total_microbatches,
        ),
        elastic=(
            run.joins,
            run.retires,
            run.reclaims,
            run.forced_evacuations,
            run.reclaim_latencies,
            run.replica_intervals,
            run.gpu_seconds,
            run.dollars_spent,
        ),
        makespans=[r.makespan for r in run.replicas],
        replans=[r.replans for r in run.replicas],
        wave_estimates=[r.wave_estimates for r in run.replicas],
        assignments=sorted(replica_set.router.assignments.items()),
        streams=[
            [
                (
                    mb.replica,
                    sorted(
                        (a.adapter_id, a.global_batch, a.sample.index)
                        for a in mb.assignments
                    ),
                )
                for mb in replica.stream
            ]
            for replica in replica_set.replicas
        ],
    )
    return fields
