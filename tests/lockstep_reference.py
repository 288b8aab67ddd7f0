"""The lockstep fleet loop: the reference the event loop is checked against.

:func:`run_lockstep` serves a trace on a fresh
:class:`~repro.serve.replicaset.ReplicaSet` with the original scan
loop.  Every iteration rescans all replicas and advances the
furthest-behind working one (smallest clock, then index) until every
working replica has reached the next arrival's timestamp; then it routes
that arrival against freshly computed views; after every iteration it
runs a synchronous rebalance pass.  Nothing is cached, so each event
costs O(replicas) before any pricing work: trivially correct, and slow.

The loop owns only *when* things happen.  *What* happens -- the
rebalance decision (``_plan_rebalance``), the move (``_migrate``), the
drain (``_apply_drain``), the views and loads -- is the replica set's
own code, the same the event loop calls, so the two loops cannot drift
apart in their decisions.  Equal fingerprints
(:func:`tests.helpers.fingerprint`) therefore pin the event loop's
ordering: a wave close at an arrival's instant yields to the arrival,
equal-clock replicas advance in index order, and control work runs
before any later event.

Fixed fleets only: joins, retirements and reclaims are kernel events
with no lockstep counterpart.
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import ScheduleError
from repro.serve import ReplicaSet, ReplicaSetResult, ReplicaView, ServeJob


def views(replica_set: ReplicaSet) -> list[ReplicaView]:
    """Every replica's routing view, recomputed, in index order."""
    return [
        replica_set._replica_view(index)
        for index in range(len(replica_set.replicas))
    ]


def run_lockstep(
    replica_set: ReplicaSet, workload: list[ServeJob]
) -> ReplicaSetResult:
    """Serve ``workload`` to completion on the lockstep loop.

    The oracle form of :meth:`~repro.serve.replicaset.ReplicaSet.run`:
    same single-shot rule, same duplicate-id check, same result (its
    ``events_processed`` stays empty -- the loop has no events).
    """
    if replica_set.config.autoscaler is not None:
        raise ScheduleError("the lockstep loop serves fixed fleets only")
    if replica_set._ran:
        raise ScheduleError("ReplicaSet.run is single-shot; construct a fresh set")
    replica_set._ran = True
    ids = [job.adapter_id for job in workload]
    if len(set(ids)) != len(ids):
        raise ScheduleError(f"duplicate adapter ids in workload: {ids}")
    replicas = replica_set.replicas
    for replica in replicas:
        replica.start([])
    arrivals = deque(
        sorted(workload, key=lambda job: (job.arrival_time, job.adapter_id))
    )
    while arrivals or any(r.has_work() for r in replicas):
        next_arrival = arrivals[0].arrival_time if arrivals else math.inf
        behind = [
            replica for replica in replicas
            if replica.has_work() and replica.clock < next_arrival
        ]
        if behind:
            # Advance the furthest-behind working replica so every
            # pipeline reaches the arrival instant before we route.
            min(behind, key=lambda r: (r.clock, r.replica_id)).step()
        else:
            job = arrivals.popleft()
            index = replica_set.router.route(job, views(replica_set))
            replicas[index].offer(job).replica = index
        _rebalance(replica_set)
    return replica_set._assemble_result()


def _rebalance(replica_set: ReplicaSet) -> None:
    """One synchronous rebalance pass over freshly computed loads.

    Moves a job at most once and drains a replica at most once per
    pass, the bounds the event loop threads through its
    REBALANCE/MIGRATION/FLUSH chain.
    """
    params = replica_set._rebalance_params()
    if params is None:
        return
    threshold, seconds_mode = params
    moved: set[int] = set()
    drained: set[int] = set()
    while True:
        loads = [
            replica_set._replica_load(index, seconds_mode)
            for index in range(len(replica_set.replicas))
        ]
        action = replica_set._plan_rebalance(
            loads, threshold, seconds_mode, moved, drained
        )
        if action is None:
            return
        if action[0] == "migrate":
            _, adapter_id, source, target = action
            moved.add(adapter_id)
            replica_set._migrate(adapter_id, source, target)
        else:
            _, source, migrant = action
            drained.add(source)
            replica_set._apply_drain(source, migrant)
