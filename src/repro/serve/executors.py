"""The streaming executor protocol and its two implementations.

The online orchestrator is executor-agnostic: anything that can admit and
retire jobs and consume microbatches one at a time implements
:class:`Executor`.  Two executors ship:

* :class:`NumericExecutor` wraps the resumable
  :class:`~repro.runtime.engine.MultiLoRAEngine` -- real weights, real
  gradients, losslessness-testable.  Its virtual clock advances by padded
  tokens (the quantity a fixed-capacity microbatch slot is sized by).
* :class:`StreamingSimExecutor` is an *incremental* re-implementation of
  the 1F1B streaming pipeline simulator
  (:func:`repro.distsim.pipeline.simulate_stream`): microbatches are fed
  one at a time and per-stage op times resolve as submissions arrive,
  producing identical makespans/busy times while also reporting *when*
  each adapter's optimizer steps complete -- the signal job-completion
  metrics need.

Incrementality relies on the scheduler's dependency gap of ``S``: under
fwd-first 1F1B, stage ``s`` executes the backward of microbatch ``k``
while submission ``k + S - s - 1`` is being processed, so every
cross-batch dependency of a submitted forward already has its time
resolved.  A stream that violates the bubble lemma surfaces as a missing
dependency, exactly where ``simulate_stream`` would deadlock.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.distsim.pipeline import PipelineResult
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


@dataclass
class _SimMicrobatch:
    """Per-stage times and batch bookkeeping of one submitted microbatch."""

    fwd: tuple[float, ...]
    bwd: tuple[float, ...]
    counts: dict[tuple[int, int], int]


class StreamingSimExecutor:
    """Incremental fwd-first 1F1B pipeline simulation.

    Args:
        cost: Layer cost model pricing each microbatch's stage times.
        num_stages: Pipeline depth.
    """

    def __init__(self, cost: LayerCostModel, num_stages: int) -> None:
        if num_stages <= 0:
            raise SimulationError("num_stages must be positive")
        self.cost = cost
        self.num_stages = num_stages
        # Keyed by absolute submission index; drained segments are pruned
        # at the boundary so state stays bounded over a long serving run.
        self._mbs: dict[int, _SimMicrobatch] = {}
        self._submitted = 0
        self._segment_start = 0  # first microbatch of the current 1F1B stream
        self._clock = [0.0] * num_stages
        self._busy = [0.0] * num_stages
        self._fwd_end: dict[tuple[int, int], float] = {}
        self._bwd_end: dict[tuple[int, int], float] = {}
        self._last_of_batch: dict[tuple[int, int], list[int]] = {}
        self._remaining: dict[tuple[int, int], int] = {}

    # -- protocol -----------------------------------------------------------

    def add_job(self, job: ServeJob) -> None:
        aid = job.adapter_id
        if any(key[0] == aid for key in self._remaining):
            raise SimulationError(f"job {aid} already registered")
        batches = job.job.dataset.global_batches(job.job.global_batch_size)
        for b, batch in enumerate(batches):
            self._remaining[(aid, b)] = len(batch)

    def remove_job(self, adapter_id: int) -> None:
        for key in [k for k in self._remaining if k[0] == adapter_id]:
            del self._remaining[key]
        for key in [k for k in self._last_of_batch if k[0] == adapter_id]:
            del self._last_of_batch[key]

    def export_job(self, adapter_id: int) -> object:
        """Snapshot the job's not-yet-stepped global-batch counters."""
        if not any(key[0] == adapter_id for key in self._remaining):
            raise SimulationError(f"job {adapter_id} is not registered")
        return {
            "remaining": {
                key[1]: count
                for key, count in self._remaining.items()
                if key[0] == adapter_id
            }
        }

    def import_job(self, job: ServeJob, payload: object) -> None:
        """Register a migrated job's remaining batches on this simulator."""
        aid = job.adapter_id
        if any(key[0] == aid for key in self._remaining):
            raise SimulationError(f"job {aid} already registered")
        if not isinstance(payload, dict) or "remaining" not in payload:
            raise SimulationError(
                f"job {aid} payload is not a simulator snapshot; it was "
                "exported by a different executor kind"
            )
        for batch, count in payload["remaining"].items():
            self._remaining[(aid, batch)] = count

    def submit(self, microbatch: Microbatch) -> list[StepEvent]:
        s_count = self.num_stages
        i = self._submitted
        local = i - self._segment_start
        if microbatch.is_noop:
            zeros = tuple(0.0 for _ in range(s_count))
            record = _SimMicrobatch(fwd=zeros, bwd=zeros, counts={})
        else:
            fwd, bwd = stage_times(self.cost, microbatch.shape(), s_count)
            counts = Counter(
                (a.adapter_id, a.global_batch) for a in microbatch.assignments
            )
            for key in counts:
                if key not in self._remaining:
                    raise SimulationError(
                        f"microbatch references adapter {key[0]} global "
                        f"batch {key[1]}, which no registered job owns; "
                        "call add_job first"
                    )
            record = _SimMicrobatch(fwd=fwd, bwd=bwd, counts=dict(counts))
        waits: list[int] = []
        for adapter_id, batch in record.counts:
            waits.extend(self._last_of_batch.get((adapter_id, batch - 1), ()))
        self._mbs[i] = record
        self._submitted += 1

        # Forwards, stage by stage down the pipeline.
        for s in range(s_count):
            deps = [self._fwd_end[(s - 1, i)]] if s > 0 else []
            for j in waits:
                end = self._bwd_end.get((s, j))
                if end is None:
                    raise SimulationError(
                        "pipeline schedule deadlocked: adapter batch "
                        "dependencies violate the bubble lemma for this "
                        "stage count"
                    )
                deps.append(end)
            begin = max([self._clock[s], *deps]) if deps else self._clock[s]
            self._finish("fwd", s, i, begin, record.fwd[s])

        # Backwards unlocked by this submission (1F1B pairing), last stage
        # first so each stage's dependency is already resolved.  A
        # partial drain (drain_job) may have forced some of these early;
        # they are done, not pending, so the pairing skips them.
        events: list[StepEvent] = []
        for s in reversed(range(s_count)):
            k_local = local - (s_count - s - 1)
            if k_local < 0:
                continue
            k = self._segment_start + k_local
            if (s, k) in self._bwd_end:
                continue
            events.extend(self._run_backward(s, k))
        for key in record.counts:
            self._last_of_batch.setdefault(key, []).append(i)
        return events

    def drain(self) -> list[StepEvent]:
        """Run the cooldown: execute every not-yet-issued backward."""
        events: list[StepEvent] = []
        n = self._submitted
        for k in range(max(self._segment_start, n - self.num_stages + 1), n):
            for s in reversed(range(self.num_stages)):
                if (s, k) not in self._bwd_end:
                    events.extend(self._run_backward(s, k))
        # Prune what the next segment can never reference, so state stays
        # bounded over a long serving run: forwards only gate same-index
        # ops (all executed), and of the backwards only those that
        # _last_of_batch still points at feed future dependency checks.
        for index in range(self._segment_start, n):
            del self._mbs[index]
        live = {index for indices in self._last_of_batch.values() for index in indices}
        self._fwd_end.clear()
        self._bwd_end = {
            key: end for key, end in self._bwd_end.items() if key[1] in live
        }
        self._segment_start = n
        return events

    def drain_job(self, adapter_id: int) -> list[StepEvent]:
        """Run the cooldown only through ``adapter_id``'s last microbatch.

        The partial counterpart of :meth:`drain`: backwards are forced
        in the same (microbatch-ascending, stage-descending) order, but
        only up to the last in-flight microbatch carrying ``adapter_id``
        -- once that one's stage-0 backward has run, every submitted
        batch of the adapter has stepped and it sits at an
        optimizer-step boundary.  Microbatches after it stay in flight:
        no bookkeeping is pruned and the 1F1B segment continues, with
        :meth:`submit`'s pairing skipping the backwards already forced
        here.  An adapter with nothing in flight drains nothing.

        Args:
            adapter_id: The adapter to bring to a step boundary.

        Returns:
            Optimizer steps the partial cooldown completed (any
            adapter's -- earlier microbatches may finish other tenants'
            batches on the way).
        """
        n = self._submitted
        start = max(self._segment_start, n - self.num_stages + 1)
        last = -1
        for index in range(start, n):
            if any(key[0] == adapter_id for key in self._mbs[index].counts):
                last = index
        events: list[StepEvent] = []
        for k in range(start, last + 1):
            for s in reversed(range(self.num_stages)):
                if (s, k) not in self._bwd_end:
                    events.extend(self._run_backward(s, k))
        return events

    def advance(self, time: float) -> None:
        for s in range(self.num_stages):
            self._clock[s] = max(self._clock[s], time)

    def utilization(self) -> float:
        """Busy fraction across stages (1 - bubble ratio).

        An executor that never ran a microbatch reports 0.0, not the
        1.0 a zero-makespan bubble ratio would degenerate to.
        """
        if not self._submitted:
            return 0.0
        return self.result().utilization

    @property
    def clock(self) -> float:
        return max(self._clock)

    # -- internals ----------------------------------------------------------

    def _finish(
        self, kind: str, stage: int, index: int, begin: float, duration: float
    ) -> float:
        end = begin + duration
        table = self._fwd_end if kind == "fwd" else self._bwd_end
        table[(stage, index)] = end
        self._clock[stage] = end
        self._busy[stage] += duration
        return end

    def _run_backward(self, stage: int, index: int) -> list[StepEvent]:
        if stage < self.num_stages - 1:
            dep = self._bwd_end[(stage + 1, index)]
        else:
            dep = self._fwd_end[(stage, index)]
        begin = max(self._clock[stage], dep)
        end = self._finish("bwd", stage, index, begin, self._mbs[index].bwd[stage])
        if stage > 0:
            return []
        # The stage-0 backward is the microbatch's last op: any global batch
        # it exhausts has now fully stepped.
        events = []
        for key, count in self._mbs[index].counts.items():
            self._remaining[key] -= count
            if self._remaining[key] == 0:
                events.append(
                    StepEvent(adapter_id=key[0], global_batch=key[1], time=end)
                )
        return events

    def result(self) -> PipelineResult:
        """Aggregate pipeline statistics (mirrors ``simulate_stream``)."""
        return PipelineResult(
            makespan=max(self._clock) if self._submitted else 0.0,
            busy=list(self._busy),
            num_stages=self.num_stages,
            num_microbatches=self._submitted,
        )
