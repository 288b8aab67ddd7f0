"""The streaming executor protocol and its two implementations.

The online orchestrator is executor-agnostic: anything that can admit and
retire jobs and consume microbatches one at a time implements
:class:`Executor`.  Two executors ship:

* :class:`NumericExecutor` wraps the resumable
  :class:`~repro.runtime.engine.MultiLoRAEngine` -- real weights, real
  gradients, losslessness-testable.  Its virtual clock advances by padded
  tokens (the quantity a fixed-capacity microbatch slot is sized by).
* :class:`StreamingSimExecutor` prices each microbatch's stage times
  and feeds it to the 1F1B pipeline timing core
  (:class:`repro.distsim.pipeline.PipelineStream`, the same core
  :func:`~repro.distsim.pipeline.simulate_stream` runs on) one at a
  time, reporting *when* each adapter's optimizer steps complete -- the
  signal job-completion metrics need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Protocol, cast, runtime_checkable

from repro.distsim.pipeline import Batches, PipelineResult, PipelineStream
from repro.distsim.systems import stage_times
from repro.errors import ScheduleError, SimulationError
from repro.models.layer_costs import LayerCostModel
from repro.runtime.engine import JobState, MultiLoRAEngine
from repro.scheduler.types import Microbatch
from repro.serve.jobs import ServeJob

__all__ = [
    "StepEvent",
    "Executor",
    "NumericExecutor",
    "StreamingSimExecutor",
]


@dataclass(frozen=True)
class StepEvent:
    """One completed optimizer step, with its (virtual) completion time.

    Attributes:
        adapter_id: The adapter that stepped.
        global_batch: The global batch whose gradient was applied.
        time: Executor clock at completion.
        loss: Summed batch loss (numeric executors only).
    """

    adapter_id: int
    global_batch: int
    time: float
    loss: float | None = None


@runtime_checkable
class Executor(Protocol):
    """What the orchestrator needs from an execution backend."""

    def add_job(self, job: ServeJob) -> None:
        """Admit a job before its microbatches are submitted."""

    def remove_job(self, adapter_id: int) -> None:
        """Retire a completed job's executor-side state."""

    def export_job(self, adapter_id: int) -> object:
        """Snapshot a live job's executor-side state for migration.

        The payload is opaque to the orchestrator: it is whatever the
        matching :meth:`import_job` on another executor of the same kind
        needs to continue the job (numeric training state for the engine,
        batch bookkeeping for the simulator).  Export does not retire the
        job; callers pair it with :meth:`remove_job`.
        """

    def import_job(self, job: ServeJob, payload: object) -> None:
        """Resume a migrated job from an :meth:`export_job` payload."""

    def submit(self, microbatch: Microbatch) -> list[StepEvent]:
        """Execute one microbatch; return optimizer steps it completed."""

    def drain(self) -> list[StepEvent]:
        """Finish all in-flight work; return the remaining step events."""

    def drain_job(self, adapter_id: int) -> list[StepEvent]:
        """Finish in-flight work only until ``adapter_id``'s submitted
        batches have stepped; return the step events completed.

        The partial drain behind
        :meth:`~repro.serve.orchestrator.OnlineOrchestrator.drain_for`.
        An adapter with nothing in flight drains nothing.
        """

    def advance(self, time: float) -> None:
        """Fast-forward the clock over idle periods (never backwards)."""

    def utilization(self) -> float:
        """Useful-work fraction of the elapsed virtual time."""

    @property
    def clock(self) -> float:
        """Current virtual time."""


class NumericExecutor:
    """Numeric training behind the streaming protocol.

    The clock is token-based: each microbatch slot costs its padded
    tokens, and a no-op slot is charged the full capacity (the worst-case
    bubble it stands for).

    Args:
        engine: The resumable numeric engine (shared model/optimizers).
    """

    def __init__(self, engine: MultiLoRAEngine) -> None:
        self.engine = engine
        self._clock = 0.0
        self._real_tokens = 0

    def add_job(self, job: ServeJob) -> None:
        if job.numeric is None:
            raise ScheduleError(
                f"job {job.adapter_id} has no numeric payload; "
                "NumericExecutor requires ServeJob.numeric"
            )
        self.engine.add_job(job.numeric)

    def remove_job(self, adapter_id: int) -> None:
        self.engine.remove_job(adapter_id)

    def export_job(self, adapter_id: int) -> object:
        """Snapshot the engine's training state (weights, moments, progress)."""
        return self.engine.export_job_state(adapter_id)

    def import_job(self, job: ServeJob, payload: object) -> None:
        """Resume a migrated or preempted job on this executor's engine."""
        if job.numeric is None:
            raise ScheduleError(
                f"job {job.adapter_id} has no numeric payload; "
                "NumericExecutor requires ServeJob.numeric"
            )
        if not isinstance(payload, JobState):
            raise ScheduleError(
                f"job {job.adapter_id} payload is not an engine JobState "
                "snapshot; it was exported by a different executor kind"
            )
        self.engine.import_job_state(job.numeric, payload)

    def submit(self, microbatch: Microbatch) -> list[StepEvent]:
        completed = self.engine.submit(microbatch)
        cost = microbatch.capacity if microbatch.is_noop else microbatch.padded_tokens
        self._clock += float(cost)
        self._real_tokens += microbatch.real_tokens
        return [
            StepEvent(
                adapter_id=step.adapter_id,
                global_batch=step.global_batch,
                time=self._clock,
                loss=step.loss,
            )
            for step in completed
        ]

    def drain(self) -> list[StepEvent]:
        return []  # execution is synchronous; nothing is in flight

    def drain_job(self, adapter_id: int) -> list[StepEvent]:
        """Partial drain: a no-op here, since nothing is ever in flight.

        Synchronous execution steps every batch at submit time, so there
        is never a pipeline tail to cut short.
        """
        return []

    def advance(self, time: float) -> None:
        self._clock = max(self._clock, time)

    def utilization(self) -> float:
        """Real-token fill fraction of the token clock."""
        return self._real_tokens / self._clock if self._clock else 0.0

    @property
    def clock(self) -> float:
        return self._clock


class StreamingSimExecutor:
    """Fwd-first 1F1B pipeline simulation behind the streaming protocol.

    The timing is :class:`~repro.distsim.pipeline.PipelineStream`'s; this
    class registers jobs, prices microbatches, and counts each global
    batch's samples down so a stage-0 backward that finishes a batch
    becomes a :class:`StepEvent`.

    Args:
        cost: Layer cost model pricing each microbatch's stage times.
        num_stages: Pipeline depth.
    """

    def __init__(self, cost: LayerCostModel, num_stages: int) -> None:
        self._stream = PipelineStream(num_stages)
        self.cost = cost
        self.num_stages = num_stages
        # Per job, samples each not-yet-stepped global batch still owes:
        # {adapter: {batch: n}}; a batch leaves its map when it steps.
        self._remaining: dict[int, dict[int, int]] = {}

    # -- protocol -----------------------------------------------------------

    def add_job(self, job: ServeJob) -> None:
        aid = job.adapter_id
        if aid in self._remaining:
            raise SimulationError(f"job {aid} already registered")
        # Global batch b holds samples [b*gbs, (b+1)*gbs); the last may be short.
        n, gbs = len(job.job.dataset), job.job.global_batch_size
        self._remaining[aid] = {
            b: min(gbs, n - b * gbs) for b in range(job.job.num_global_batches())
        }

    def remove_job(self, adapter_id: int) -> None:
        self._remaining.pop(adapter_id, None)
        self._stream.forget(adapter_id)

    def export_job(self, adapter_id: int) -> object:
        """Snapshot the job's not-yet-stepped global-batch counters."""
        if adapter_id not in self._remaining:
            raise SimulationError(f"job {adapter_id} is not registered")
        return {"remaining": dict(self._remaining[adapter_id])}

    def import_job(self, job: ServeJob, payload: object) -> None:
        """Register a migrated job's remaining batches on this simulator."""
        aid = job.adapter_id
        if aid in self._remaining:
            raise SimulationError(f"job {aid} already registered")
        if not isinstance(payload, dict) or "remaining" not in payload:
            raise SimulationError(
                f"job {aid} payload is not a simulator snapshot; it was "
                "exported by a different executor kind"
            )
        self._remaining[aid] = dict(payload["remaining"])

    def submit(self, microbatch: Microbatch) -> list[StepEvent]:
        if microbatch.is_noop:
            zeros = (0.0,) * self.num_stages
            return self._steps(self._stream.submit(zeros, zeros, {}))
        fwd, bwd = stage_times(self.cost, microbatch.shape(), self.num_stages)
        counts = Counter((a.adapter_id, a.global_batch) for a in microbatch.assignments)
        for aid, batch in counts:
            if batch not in self._remaining.get(aid, ()):
                raise SimulationError(
                    f"microbatch references adapter {aid} global "
                    f"batch {batch}, which no registered job owns; "
                    "call add_job first"
                )
        return self._steps(self._stream.submit(fwd, bwd, dict(counts)))

    def drain(self) -> list[StepEvent]:
        """Run the cooldown: execute every not-yet-issued backward."""
        return self._steps(self._stream.drain())

    def drain_job(self, adapter_id: int) -> list[StepEvent]:
        """Run the cooldown only through ``adapter_id``'s last microbatch.

        The partial counterpart of :meth:`drain`
        (:meth:`~repro.distsim.pipeline.PipelineStream.drain_adapter`):
        once that microbatch's stage-0 backward has run, every submitted
        batch of the adapter has stepped and it sits at an
        optimizer-step boundary.  Microbatches after it stay in flight
        and the 1F1B segment continues.  An adapter with nothing in
        flight drains nothing.

        Returns:
            Optimizer steps the partial cooldown completed (any
            adapter's -- earlier microbatches may finish other tenants'
            batches on the way).
        """
        return self._steps(self._stream.drain_adapter(adapter_id))

    def advance(self, time: float) -> None:
        self._stream.advance(time)

    def utilization(self) -> float:
        """Busy fraction across stages (1 - bubble ratio).

        An executor that never ran a microbatch reports 0.0, not the
        1.0 a zero-makespan bubble ratio would degenerate to.
        """
        if not self._stream.submitted:
            return 0.0
        return self.result().utilization

    @property
    def clock(self) -> float:
        return max(self._stream.clock)

    def result(self) -> PipelineResult:
        """Aggregate pipeline statistics (as ``simulate_stream`` reports)."""
        return self._stream.result()

    def _steps(self, done: list[tuple[Batches, float]]) -> list[StepEvent]:
        # A microbatch's stage-0 backward is its last op: any global batch
        # it exhausts has now fully stepped.
        events = []
        for batches, end in done:
            # submit feeds the core a dict: batch -> samples carried.
            for (aid, batch), count in cast(
                "dict[tuple[int, int], int]", batches
            ).items():
                remaining = self._remaining[aid]
                remaining[batch] -= count
                if remaining[batch] == 0:
                    del remaining[batch]
                    events.append(
                        StepEvent(adapter_id=aid, global_batch=batch, time=end)
                    )
        return events
