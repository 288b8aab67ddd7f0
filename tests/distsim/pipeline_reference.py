"""The in-order 1F1B pipeline simulator: the reference stream timing.

This is the streaming simulator as it was written before the timing
moved into one incremental core: every stage's full op order is laid
out up front (``_stage_order``) and a polling loop issues each stage's
next op once its dependencies have end times.
:func:`repro.distsim.pipeline.simulate_stream` must return the same
makespan, busy list and microbatch count under ``==``, or raise
:class:`SimulationError` where this one does.
"""

from __future__ import annotations

from repro.distsim.pipeline import PipelineMicrobatch, PipelineResult
from repro.errors import SimulationError


def _stage_order(stage: int, num_stages: int, num_mbs: int):
    """The 1F1B op order of one stage: ('F'|'B', microbatch index) pairs.

    Megatron's schedule: ``min(S - s - 1, M)`` warmup forwards, then
    forward-backward pairs in steady state, then a cooldown draining the
    remaining backwards.  Under this order, stage ``s`` issues ``F(i)``
    before ``B(i - warmup)``, so a forward may only depend on the backward
    of a microbatch at least ``S`` slots earlier -- hence the scheduler's
    dependency gap of ``S`` (one more than the paper's ``S - 1`` lemma,
    the price of a static fwd-first slot order).
    """
    warmup = min(num_stages - stage - 1, num_mbs)
    order: list[tuple[str, int]] = [("F", i) for i in range(warmup)]
    for i in range(warmup, num_mbs):
        order.append(("F", i))
        order.append(("B", i - warmup))
    for i in range(num_mbs - warmup, num_mbs):
        order.append(("B", i))
    return order


def reference_simulate_stream(
    microbatches: list[PipelineMicrobatch],
    num_stages: int,
    start_time: float = 0.0,
) -> PipelineResult:
    """Simulate one continuous 1F1B stream over ``microbatches``.

    Cross-batch adapter dependencies are enforced: the forward of a
    microbatch carrying ``(a, j)`` waits, on every stage, for the backward
    of every earlier microbatch carrying ``(a, j-1)`` on that stage.

    Raises:
        SimulationError: If the in-order schedule deadlocks, i.e. the
            microbatch stream violates the bubble lemma for this depth.
    """
    num_mbs = len(microbatches)
    if num_mbs == 0:
        return PipelineResult(0.0, [0.0] * num_stages, num_stages, 0)
    for mb in microbatches:
        if len(mb.fwd_times) != num_stages or len(mb.bwd_times) != num_stages:
            raise SimulationError(
                f"microbatch has {len(mb.fwd_times)} stage times, "
                f"pipeline has {num_stages} stages"
            )

    # Precompute, per microbatch, the earlier microbatches whose backward
    # must complete first (previous global batch of any adapter it carries).
    waits_for: list[list[int]] = [[] for _ in range(num_mbs)]
    last_of_batch: dict[tuple[int, int], list[int]] = {}
    for i, mb in enumerate(microbatches):
        for adapter_id, batch in mb.adapter_batches:
            for j in last_of_batch.get((adapter_id, batch - 1), ()):
                waits_for[i].append(j)
        for adapter_id, batch in mb.adapter_batches:
            last_of_batch.setdefault((adapter_id, batch), []).append(i)

    orders = [_stage_order(s, num_stages, num_mbs) for s in range(num_stages)]
    position = [0] * num_stages
    fwd_end: dict[tuple[int, int], float] = {}  # (stage, mb) -> end time
    bwd_end: dict[tuple[int, int], float] = {}
    clock = [start_time] * num_stages
    busy = [0.0] * num_stages

    total_ops = sum(len(order) for order in orders)
    scheduled = 0
    while scheduled < total_ops:
        progressed = False
        for s in range(num_stages):
            while position[s] < len(orders[s]):
                kind, i = orders[s][position[s]]
                if kind == "F":
                    deps: list[float] = []
                    if s > 0:
                        if (s - 1, i) not in fwd_end:
                            break
                        deps.append(fwd_end[(s - 1, i)])
                    ready = True
                    for j in waits_for[i]:
                        if (s, j) not in bwd_end:
                            ready = False
                            break
                        deps.append(bwd_end[(s, j)])
                    if not ready:
                        break
                    duration = microbatches[i].fwd_times[s]
                    begin = max([clock[s], *deps]) if deps else clock[s]
                    fwd_end[(s, i)] = begin + duration
                    clock[s] = begin + duration
                    busy[s] += duration
                else:
                    deps = []
                    if s < num_stages - 1:
                        if (s + 1, i) not in bwd_end:
                            break
                        deps.append(bwd_end[(s + 1, i)])
                    else:
                        if (s, i) not in fwd_end:
                            break
                        deps.append(fwd_end[(s, i)])
                    duration = microbatches[i].bwd_times[s]
                    begin = max([clock[s], *deps])
                    bwd_end[(s, i)] = begin + duration
                    clock[s] = begin + duration
                    busy[s] += duration
                position[s] += 1
                scheduled += 1
                progressed = True
        if not progressed:
            raise SimulationError(
                "pipeline schedule deadlocked: adapter batch dependencies "
                "violate the bubble lemma for this stage count"
            )
    makespan = max(clock) - start_time
    return PipelineResult(makespan, busy, num_stages, num_mbs)
