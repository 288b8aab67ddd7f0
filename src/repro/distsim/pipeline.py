"""Dependency-driven pipeline-parallel simulation (1F1B, streamed or flushed).

Two execution modes reproduce the paper's pipeline baselines and system:

* **Flushed 1F1B** (Megatron-LM): each global batch runs a full 1F1B
  schedule and the pipeline drains before the next batch starts.  Bubbles
  come from warmup/cooldown ramps every batch.
* **Streaming** (mLoRA / LoRAFusion): one continuous 1F1B stream over all
  microbatches from all jobs.  Cross-batch dependencies (an adapter's batch
  ``j+1`` needs batch ``j``'s backward + optimizer step on every stage) are
  modelled as explicit edges; the scheduler's bubble-lemma spacing makes
  them satisfiable without stalling -- exactly the paper's "near-zero
  pipeline bubbles" mechanism.

Both run on one timing core, :class:`PipelineStream`, which times
Megatron's fwd-first 1F1B order as microbatches arrive: stage ``s`` runs
``S - s - 1`` warmup forwards, then forward-backward pairs, then a
cooldown.  Feeding microbatch ``i`` runs its forward on every stage, then
on each stage the backward 1F1B pairs with it (``i - (S - s - 1)``), last
stage first; a drain runs the cooldown.  Each op starts once its stage is
free and its cross-stage dependencies have ended, which mirrors how the
static schedule behaves on real GPUs, including the stalls that variable
microbatch sizes introduce.

Under this order stage ``s`` issues ``F(i)`` before ``B(i - S + s + 1)``,
so a forward may only depend on the backward of a microbatch at least
``S`` slots earlier -- hence the scheduler's dependency gap of ``S`` (one
more than the paper's ``S - 1`` lemma, the price of a static fwd-first
slot order).  Every dependency of a fed forward therefore already has its
end time; a stream that violates the bubble lemma surfaces as a missing
one, which is a deadlock.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["PipelineMicrobatch", "PipelineResult", "PipelineStream",
           "simulate_stream", "simulate_flushed"]

#: The ``(adapter_id, global_batch)`` pairs a microbatch carries.
Batches = Collection[tuple[int, int]]


@dataclass(frozen=True)
class PipelineMicrobatch:
    """One microbatch's per-stage work and dependency metadata.

    Attributes:
        fwd_times: Forward seconds per stage (length = pipeline depth).
        bwd_times: Backward seconds per stage.
        adapter_batches: ``(adapter_id, global_batch)`` pairs whose samples
            this microbatch carries (empty for no-ops).
        tag: Free-form label (used for flush grouping / traces).
    """

    fwd_times: tuple[float, ...]
    bwd_times: tuple[float, ...]
    adapter_batches: frozenset[tuple[int, int]] = frozenset()
    tag: str = ""


@dataclass
class PipelineResult:
    """Outcome of a pipeline simulation.

    Attributes:
        makespan: End-to-end seconds.
        busy: Per-stage busy seconds.
        num_stages: Pipeline depth.
        num_microbatches: Microbatches executed (including no-ops).
    """

    makespan: float
    busy: list[float]
    num_stages: int
    num_microbatches: int

    @property
    def bubble_ratio(self) -> float:
        """Idle fraction across all stages (the paper's Figure 20 metric)."""
        if self.makespan == 0:
            return 0.0
        total = self.makespan * self.num_stages
        return (total - sum(self.busy)) / total

    @property
    def utilization(self) -> float:
        """1 - bubble ratio."""
        return 1.0 - self.bubble_ratio


def _check_pipeline(num_stages: int, start_time: float = 0.0) -> None:
    if num_stages < 1:
        raise SimulationError(f"num_stages must be positive, got {num_stages}")
    if not math.isfinite(start_time):
        raise SimulationError(f"start_time must be finite, got {start_time!r}")


class PipelineStream:
    """One continuous fwd-first 1F1B stream, timed as microbatches arrive.

    The forward of a microbatch carrying ``(a, j)`` waits, on every stage,
    for the backward of every earlier microbatch carrying ``(a, j - 1)``.
    :meth:`submit`, :meth:`drain` and :meth:`drain_adapter` return one
    ``(batches, end)`` pair per stage-0 backward they ran: a microbatch's
    last op, after which the batches it carries have had all their work.

    Args:
        num_stages: Pipeline depth.
        start_time: Every stage's initial clock.

    Raises:
        SimulationError: If ``num_stages < 1`` or ``start_time`` is not
            finite.
    """

    # One per serving replica: slots keep a large fleet's footprint down.
    __slots__ = ("num_stages", "start_time", "clock", "busy", "submitted",
                 "_segment_start", "_mbs", "_fwd_end", "_bwd_end", "_last_of_batch")

    def __init__(self, num_stages: int, start_time: float = 0.0) -> None:
        _check_pipeline(num_stages, start_time)
        self.num_stages = num_stages
        self.start_time = start_time
        self.clock = [start_time] * num_stages
        self.busy = [0.0] * num_stages
        self.submitted = 0
        # Keyed by absolute submission index.  A full drain starts a new
        # segment and prunes what it can never reference, so state stays
        # bounded over a long serving run.
        self._segment_start = 0
        self._mbs: dict[int, tuple[tuple[float, ...], Batches]] = {}
        self._fwd_end: dict[int, float] = {}  # last stage's forward end
        self._bwd_end: dict[tuple[int, int], float] = {}
        self._last_of_batch: dict[tuple[int, int], list[int]] = {}

    def submit(
        self, fwd: tuple[float, ...], bwd: tuple[float, ...], batches: Batches
    ) -> list[tuple[Batches, float]]:
        """Run one microbatch's forwards and the backwards paired with them.

        Raises:
            SimulationError: If a forward depends on a backward 1F1B has
                not run yet: the stream violates the bubble lemma.  The
                stream is left as it was, since a missing dependency is
                always found on stage 0, before any op runs (every
                stage's backward of a microbatch runs before stage 0's).
        """
        i = self.submitted
        last_of_batch = self._last_of_batch
        waits = [j for a, b in batches for j in last_of_batch.get((a, b - 1), ())]
        clock, busy, bwd_end = self.clock, self.busy, self._bwd_end
        end = 0.0
        for s in range(self.num_stages):
            # ``max([clock[s], *deps])``, without building the list.
            begin = clock[s]
            if s and end > begin:
                begin = end
            for j in waits:
                dep = bwd_end.get((s, j))
                if dep is None:
                    raise SimulationError(
                        "pipeline schedule deadlocked: adapter batch "
                        "dependencies violate the bubble lemma for this "
                        "stage count"
                    )
                if dep > begin:
                    begin = dep
            end = begin + fwd[s]
            clock[s] = end
            busy[s] += fwd[s]
        self._mbs[i] = (bwd, batches)
        self._fwd_end[i] = end
        self.submitted += 1
        # Last stage first, so each backward's dependency has ended.  A
        # partial drain may have run some of these early; they are skipped.
        done: list[tuple[Batches, float]] = []
        for s in reversed(range(self.num_stages)):
            k = i - (self.num_stages - s - 1)
            if k >= self._segment_start and (s, k) not in bwd_end:
                self._backward(s, k, done)
        for key in batches:
            last_of_batch.setdefault(key, []).append(i)
        return done

    def drain(self) -> list[tuple[Batches, float]]:
        """Run the cooldown: every backward not yet run.  Starts a segment."""
        done = self._cooldown(self.submitted - 1)
        # Forwards only gate same-index ops (all run); of the backwards,
        # only those ``_last_of_batch`` still names gate later forwards.
        live = {j for indices in self._last_of_batch.values() for j in indices}
        self._mbs.clear()
        self._fwd_end.clear()
        self._bwd_end = {
            key: end for key, end in self._bwd_end.items() if key[1] in live
        }
        self._segment_start = self.submitted
        return done

    def drain_adapter(self, adapter_id: int) -> list[tuple[Batches, float]]:
        """Run the cooldown only through ``adapter_id``'s last microbatch.

        Backwards run in :meth:`drain`'s order, but only up to the last
        in-flight microbatch carrying ``adapter_id``; those after it stay
        in flight and the segment continues.  An adapter with nothing in
        flight drains nothing.
        """
        start = max(self._segment_start, self.submitted - self.num_stages + 1)
        last = -1
        for k in range(start, self.submitted):
            if any(a == adapter_id for a, _ in self._mbs[k][1]):
                last = k
        return self._cooldown(last)

    def forget(self, adapter_id: int) -> None:
        """Drop a retired adapter's batch dependencies."""
        for key in [k for k in self._last_of_batch if k[0] == adapter_id]:
            del self._last_of_batch[key]

    def advance(self, time: float) -> None:
        """Idle every stage until ``time`` (never backwards)."""
        self.clock[:] = [max(c, time) for c in self.clock]

    def result(self) -> PipelineResult:
        """Makespan since ``start_time`` (0 before any submission), busy time."""
        makespan = max(self.clock) - self.start_time if self.submitted else 0.0
        return PipelineResult(
            makespan, list(self.busy), self.num_stages, self.submitted
        )

    def _cooldown(self, last: int) -> list[tuple[Batches, float]]:
        done: list[tuple[Batches, float]] = []
        start = max(self._segment_start, self.submitted - self.num_stages + 1)
        for k in range(start, last + 1):
            for s in reversed(range(self.num_stages)):
                if (s, k) not in self._bwd_end:
                    self._backward(s, k, done)
        return done

    def _backward(self, s: int, k: int, done: list[tuple[Batches, float]]) -> None:
        bwd, batches = self._mbs[k]
        if s < self.num_stages - 1:
            dep = self._bwd_end[(s + 1, k)]
        else:
            dep = self._fwd_end[k]
        begin = dep if dep > self.clock[s] else self.clock[s]
        end = begin + bwd[s]
        self._bwd_end[(s, k)] = end
        self.clock[s] = end
        self.busy[s] += bwd[s]
        if s == 0:
            done.append((batches, end))


def simulate_stream(
    microbatches: list[PipelineMicrobatch],
    num_stages: int,
    start_time: float = 0.0,
) -> PipelineResult:
    """Simulate one continuous 1F1B stream over ``microbatches``.

    Cross-batch adapter dependencies are enforced: the forward of a
    microbatch carrying ``(a, j)`` waits, on every stage, for the backward
    of every earlier microbatch carrying ``(a, j-1)`` on that stage.

    Raises:
        SimulationError: If ``num_stages < 1``, ``start_time`` is not
            finite, a microbatch's stage count differs from
            ``num_stages``, or the schedule deadlocks, i.e. the stream
            violates the bubble lemma for this depth.
    """
    stream = PipelineStream(num_stages, start_time)
    for mb in microbatches:
        if len(mb.fwd_times) != num_stages or len(mb.bwd_times) != num_stages:
            raise SimulationError(
                f"microbatch has {len(mb.fwd_times)} stage times, "
                f"pipeline has {num_stages} stages"
            )
    for mb in microbatches:
        stream.submit(mb.fwd_times, mb.bwd_times, mb.adapter_batches)
    stream.drain()
    return stream.result()


def simulate_flushed(
    batches: list[list[PipelineMicrobatch]],
    num_stages: int,
) -> PipelineResult:
    """Megatron-style execution: full pipeline flush between global batches.

    Each batch runs its own 1F1B schedule; batch ``g+1`` starts only after
    batch ``g`` drains.  Busy time aggregates across batches, which is how
    the warmup/cooldown bubbles of every batch accumulate into the ~49%
    idle fraction of Figure 20.

    Raises:
        SimulationError: If ``num_stages < 1``, or as
            :func:`simulate_stream` does for any batch.
    """
    _check_pipeline(num_stages)
    makespan = 0.0
    busy = [0.0] * num_stages
    count = 0
    for batch in batches:
        result = simulate_stream(batch, num_stages)
        makespan += result.makespan
        for s in range(num_stages):
            busy[s] += result.busy[s]
        count += result.num_microbatches
    return PipelineResult(makespan, busy, num_stages, count)
