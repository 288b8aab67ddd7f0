"""The online multi-tenant orchestrator: continuous job serving.

The offline pipeline (schedule everything, then execute) assumes all jobs
are known upfront.  Production multi-tenant traffic is a stream: jobs
arrive over time, hold an adapter slot while training, and retire.  The
orchestrator closes that gap with an incremental schedule->splice->execute
loop over any :class:`~repro.serve.executors.Executor`:

1. **Admit** arrivals against the admission policy's adapter-slot budget
   (memory-derived or fixed), in the order the configured
   :class:`~repro.serve.ordering.OrderingPolicy` ranks them (FCFS,
   SRPT, priority classes, or earliest deadline first).  A preemptive
   policy may also *evict* a running job for a strictly better-ranked
   candidate: the victim's executor state is exported at an
   optimizer-step boundary and parked, and it re-enters the candidate
   pool with its progress intact -- losslessly.
2. **Plan a wave**: window each live job to its next ``window_batches``
   global batches (``batch_offset`` keeps optimizer-step indices
   absolute) and run the two-phase scheduler
   (:meth:`~repro.scheduler.scheduler.MultiLoRAScheduler.plan_step` +
   :meth:`~repro.scheduler.scheduler.MultiLoRAScheduler.assemble`) over
   live jobs only.
3. **Splice** the window into the in-flight stream: the
   :class:`~repro.serve.splice.StreamSplicer` inserts junction no-ops so
   the concatenated stream never violates the bubble lemma.
4. **Execute** the spliced microbatches; optimizer-step events update
   per-job records, and jobs whose final batch stepped retire
   immediately, freeing their slot for the next arrival.  With
   ``mid_wave_admission`` on, an urgent arrival (one the policy would
   admit or promote right now) cuts the wave at the next
   whole-global-batch point instead of waiting for the wave boundary:
   the pipeline flushes, the unsubmitted tail returns to the planning
   horizon, and the next wave includes the newcomer.

When every live job is fully scheduled but pipeline work is still in
flight (or pending jobs wait on slots), the executor drains -- a pipeline
flush -- and the loop resumes with the freed slots.  Losslessness holds
throughout: window scheduling never reorders samples across global-batch
boundaries, the splicer preserves update ordering, and preemption only
moves state at optimizer-step boundaries, so a job served under churn --
even evicted and resumed -- trains exactly as it would alone.

Every unfinished job is one private record, whichever state it is in:
queued (pending), preempted (parked) or holding a slot (active).  The
record carries the job's batch count (fixed at offer), the optimizer
steps banked, the next batch to schedule and, while parked, its
exported executor state; the work a job still owes is defined once, as
batches minus steps banked.  No job's global batches are ever built as
lists: batch ``j`` is ``samples[j*gbs:(j+1)*gbs]`` of its dataset, so a
wave's window is one slice of the job's samples.
A :class:`MigrationTicket` carries the same state between replicas.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from repro.errors import ScheduleError, require_int
from repro.scheduler.bubble import find_violations
from repro.scheduler.grouping import StickyGrouper
from repro.scheduler.scheduler import MultiLoRAScheduler, SchedulerConfig
from repro.scheduler.types import AdapterJob, JobWindow, Microbatch, PlannedJob
from repro.serve.admission import AdmissionPolicy
from repro.serve.costing import CostEstimator, TenantProfile
from repro.serve.executors import Executor, StepEvent
from repro.serve.jobs import ServeJob, workload_jobs
from repro.serve.metrics import JobRecord, OrchestratorResult
from repro.serve.ordering import (
    FCFSOrdering,
    JobView,
    OrderingPolicy,
    policy_keys,
    validate_policy,
)
from repro.serve.splice import StreamSplicer

__all__ = [
    "AdaptiveWindowConfig",
    "OrchestratorConfig",
    "MigrationTicket",
    "OnlineOrchestrator",
]

#: Wave-assembly schemes the orchestrator accepts: ``"arrival"``
#: recomputes head-tail groups per wave from arrival order (the
#: original behavior); ``"knapsack"`` assembles waves from sticky
#: token-mass knapsack groups
#: (:func:`~repro.scheduler.grouping.knapsack_groups` layouts pinned by
#: :class:`~repro.scheduler.grouping.StickyGrouper`).
_PACKING_MODES = ("arrival", "knapsack")

#: Cap on the merge discount folded into wave pricing: the merge pass
#: can at most halve a pair of microbatches, and pricing more than half
#: the steady-state bound away would let one lucky wave undercut the
#: serialization floor's protection.
_MAX_MERGE_DISCOUNT = 0.5

#: Window scheduler stats accumulated across waves into the result stats.
_ACCUMULATED_STATS = ("merges", "noops_inserted", "milp_selected", "packing_tasks")


@dataclass(frozen=True)
class AdaptiveWindowConfig:
    """The adaptive ``window_batches`` control loop.

    The window is the responsiveness/packing-quality dial: small windows
    let arrivals join (and retirements free slots) quickly but pay more
    replans and junction no-ops; large windows pack better.  No static
    value suits both a churning and a stable tenant set, so this loop
    adapts it between waves:

    * **Shrink under churn** -- any live-set change since the last wave
      (admission, retirement, preemption, rejection, migration, wave
      cut) halves the window down to ``min_batches``: the plan went
      stale, keep the next one short.
    * **Grow when stable** -- a wave with no churn grows the window by
      one up to ``max_batches``: the tenant set is settled, buy packing
      quality.

    Attributes:
        min_batches: Window floor (>= 1).
        max_batches: Window ceiling (>= ``min_batches``).
    """

    min_batches: int = 1
    max_batches: int = 8

    def __post_init__(self) -> None:
        require_int(min_batches=self.min_batches, max_batches=self.max_batches)
        if self.min_batches <= 0:
            raise ScheduleError("min_batches must be positive")
        if self.max_batches < self.min_batches:
            raise ScheduleError("max_batches must be >= min_batches")


@dataclass(frozen=True)
class OrchestratorConfig:
    """Tunables of the online orchestrator.

    Attributes:
        scheduler: Per-wave scheduler configuration (capacity, stages,
            MILP/merge switches...).
        window_batches: Global batches per job per planning wave; ``None``
            schedules each job's whole remaining horizon in one wave
            (with all arrivals at time 0 this is the offline oracle).
            With ``adaptive_window`` set this is the *starting* window.
        admission: Adapter-slot policy; ``None`` admits unboundedly.  A
            :class:`~repro.serve.admission.DeadlineFeasibilityAdmission`
            additionally sheds due candidates whose deadline is no
            longer feasible (requires ``estimator``).
        ordering: Slot-candidate ranking (and preemption) policy;
            ``None`` is FCFS, the original arrival-order behavior.
        mid_wave_admission: Let an urgent arrival cut the running wave
            at the next whole-global-batch point (paying a pipeline
            flush) instead of waiting for the wave boundary.  Off by
            default: under steady traffic the flush bubbles cost more
            than the queueing they save.
        estimator: Cost estimator pricing candidates and waves in
            expected seconds.  When set, ordering policies see
            :attr:`~repro.serve.ordering.JobView.remaining_seconds`,
            per-wave predicted/observed calibration pairs are recorded
            (:attr:`~repro.serve.metrics.OrchestratorResult.wave_estimates`),
            and the replica exposes seconds-valued load to routing.
            Meaningful with cost-model-clocked executors
            (:class:`~repro.serve.executors.StreamingSimExecutor`); the
            numeric executor's token clock is a different unit.
        adaptive_window: Enable the window control loop (see
            :class:`AdaptiveWindowConfig`); ``None`` keeps the static
            ``window_batches``.
        packing: Wave-assembly scheme: ``"arrival"`` (default) rebuilds
            head-tail groups per wave from arrival order; ``"knapsack"``
            assembles waves from sticky token-mass knapsack groups, adds
            a length-interleaving tie-breaker to admission (when the
            admission policy exposes ``interleave_key`` and an estimator
            is set), and folds the observed merge fraction into wave
            pricing as a ``merge_discount``.
    """

    scheduler: SchedulerConfig
    window_batches: int | None = 2
    admission: AdmissionPolicy | None = None
    ordering: OrderingPolicy | None = None
    mid_wave_admission: bool = False
    estimator: CostEstimator | None = None
    adaptive_window: AdaptiveWindowConfig | None = None
    packing: str = "arrival"

    def __post_init__(self) -> None:
        if self.window_batches is not None:
            require_int(window_batches=self.window_batches)
            if self.window_batches <= 0:
                raise ScheduleError("window_batches must be positive (or None)")
        if self.packing not in _PACKING_MODES:
            raise ScheduleError(
                f"unknown packing mode {self.packing!r}; "
                f"expected one of {_PACKING_MODES}"
            )
        if self.ordering is not None:
            validate_policy(self.ordering)
        if self.adaptive_window is not None and self.window_batches is None:
            raise ScheduleError(
                "adaptive_window needs a finite starting window_batches"
            )
        if hasattr(self.admission, "feasible") and self.estimator is None:
            raise ScheduleError(
                "deadline-feasibility admission requires an estimator to "
                "price remaining time"
            )


@dataclass(eq=False)
class _Job:
    """Orchestrator-side state of one unfinished job, pending, parked or active.

    ``num_batches`` is fixed at offer; ``payload`` holds the executor
    state exported at eviction while the job is parked (or carried in by
    a migration ticket until the job is activated).
    """

    serve_job: ServeJob
    record: JobRecord
    num_batches: int
    completed: int = 0  # optimizer steps banked
    next_batch: int = 0  # first not-yet-scheduled global batch
    payload: object | None = None

    @property
    def remaining(self) -> int:
        """Global batches this job still owes (not yet stepped)."""
        return self.num_batches - self.completed


@dataclass(frozen=True)
class MigrationTicket:
    """A job in transit between two orchestrators (pipeline replicas).

    Produced by :meth:`OnlineOrchestrator.eject_job` and consumed by
    :meth:`OnlineOrchestrator.inject_job`.  A still-pending job travels
    without executor state (``payload is None``); an admitted or parked
    (preempted) job carries the opaque
    :meth:`~repro.serve.executors.Executor.export_job` payload that lets
    the destination executor continue it losslessly.

    Attributes:
        job: The serve job being moved (full dataset view).
        record: The job's lifecycle record, moved along with it.
        completed: Optimizer steps already taken when ejected.
        payload: Executor state snapshot (``None`` for pending jobs).
    """

    job: ServeJob
    record: JobRecord
    completed: int
    payload: object | None = None

    @property
    def adapter_id(self) -> int:
        """The migrating job's adapter identity."""
        return self.job.adapter_id


class OnlineOrchestrator:
    """Serves a stream of fine-tuning jobs on one executor.

    The orchestrator can be driven two ways: :meth:`run` serves a whole
    workload to completion (the single-pipeline path), or a coordinator
    such as :class:`~repro.serve.replicaset.ReplicaSet` calls
    :meth:`start` once and then interleaves :meth:`offer` (routed
    arrivals), :meth:`step` (one serving-loop iteration), and
    :meth:`eject_job`/:meth:`inject_job` (migration), finishing with
    :meth:`finish`.

    Each unfinished job lives in one record held by exactly one of three
    containers: the arrival-sorted pending queue, the parked (preempted)
    jobs, or the active (slot-holding) jobs, the latter two in insertion
    order.  Admission, preemption, migration and every load read move or
    read that one record, so remaining work is counted one way for all
    three states.

    Args:
        executor: Execution backend (numeric engine or pipeline
            simulator).
        config: Orchestrator tunables.
        replica_id: Identity stamped onto every executed microbatch
            (:attr:`~repro.scheduler.types.Microbatch.replica`) so merged
            multi-replica traces stay attributable.
    """

    def __init__(
        self,
        executor: Executor,
        config: OrchestratorConfig,
        replica_id: int = 0,
    ) -> None:
        self.executor = executor
        self.config = config
        self.replica_id = replica_id
        self.stream: list[Microbatch] = []
        self._splicer = StreamSplicer(config.scheduler.num_stages)
        self._policy: OrderingPolicy = config.ordering or FCFSOrdering()
        self._estimator: CostEstimator | None = config.estimator
        # Every unfinished job is one _Job, held by exactly one of these:
        # arrival-sorted pending, then insertion-ordered parked and active.
        self._pending: list[_Job] = []
        self._parked: dict[int, _Job] = {}
        self._active: dict[int, _Job] = {}
        self._records: dict[int, JobRecord] = {}
        self._replans = 0
        self._preemptions = 0
        self._wave_cuts = 0
        self._stats: dict[str, float] = {key: 0.0 for key in _ACCUMULATED_STATS}
        # Knapsack-mode state: the sticky grouper pins group layouts per
        # live-set membership, and the merges (in ``_stats``) over the
        # planned microbatch count feed the merge discount folded into
        # wave pricing.
        self._grouper = (
            StickyGrouper() if config.packing == "knapsack" else None
        )
        self._planned_mbs = 0.0
        # Admission interleave hook, resolved once like the gate: only
        # knapsack mode with an estimator consults it, and only when the
        # admission policy exposes it.
        self._interleave = (
            getattr(config.admission, "interleave_key", None)
            if self._grouper is not None and config.estimator is not None
            else None
        )
        self._slot_budget = (
            config.admission.max_concurrent()
            if config.admission is not None
            else None
        )
        # The feasibility gate, resolved once (the admission policy is
        # fixed at construction): ``feasible(view, now, backlog)``.
        self._gate = getattr(config.admission, "feasible", None)
        self._started = False
        # Adaptive window state: the live window starts at the configured
        # value (clamped into the adaptive band) and churn since the last
        # wave drives shrink/grow decisions in _next_window.
        self._window = config.window_batches
        if config.adaptive_window is not None and self._window is not None:
            adaptive = config.adaptive_window
            self._window = min(
                adaptive.max_batches, max(adaptive.min_batches, self._window)
            )
        self._churn = 0
        # Calibration state: predicted seconds of the wave in flight, the
        # clock it started at, the idle time already accumulated, and the
        # tenants the wave serves -- observed time is clock delta minus
        # idle fast-forwards, finalized when the next wave starts (so
        # pipeline-tail spillover is attributed, approximately, to the
        # wave that caused it).  The tenant set feeds the estimator's
        # CalibrationTracker, when one is attached.
        self._idle_advanced = 0.0
        self._open_wave: tuple[float, float, float, tuple[int, ...]] | None = None
        self._wave_estimates: list[tuple[float, float]] = []
        # Price on change: one entry per live job, ``(job, batches,
        # calibration version, seconds)`` -- a job is re-priced only
        # when one of those moves (the replica id never does).
        self._prices: dict[int, tuple[AdapterJob, int, int, float]] = {}

    # -- candidate ranking ---------------------------------------------------

    def _calibration_version(self) -> int:
        """The estimator's correction stamp (0 without a tracker)."""
        estimator = self._estimator
        calibration = None if estimator is None else estimator.calibration
        return 0 if calibration is None else calibration.version

    def _remaining_seconds(self, job: AdapterJob, batches: int) -> float | None:
        """Expected service seconds for ``batches`` more of ``job``.

        Memoised per live job: on this replica the price is a pure
        function of the job, its remaining batches and the calibration
        version, so a hit returns the very float a recompute would.
        """
        if self._estimator is None:
            return None
        version = self._calibration_version()
        entry = self._prices.get(job.adapter_id)
        if (
            entry is not None
            and entry[0] is job
            and entry[1] == batches
            and entry[2] == version
        ):
            return entry[3]
        seconds = self._estimator.job_seconds(job, batches, replica=self.replica_id)
        self._prices[job.adapter_id] = (job, batches, version, seconds)
        return seconds

    def _price(self, job: _Job) -> float | None:
        """Expected service seconds of ``job``'s remaining batches."""
        return self._remaining_seconds(job.serve_job.job, job.remaining)

    def _view(self, job: _Job, admitted: bool = False) -> JobView:
        serve_job = job.serve_job
        # Positional: a NamedTuple built by keyword costs about twice as much.
        return JobView(
            serve_job.adapter_id,
            serve_job.arrival_time,
            serve_job.priority,
            serve_job.deadline,
            job.remaining,
            admitted,
            self._price(job),
        )

    def _jobs(self) -> Iterator[_Job]:
        """Every unfinished job: active, then parked, then pending."""
        return chain(self._active.values(), self._parked.values(), self._pending)

    def _held(self, adapter_id: int) -> _Job:
        """The unfinished job ``adapter_id``, whichever container holds it."""
        for job in self._jobs():
            if job.serve_job.adapter_id == adapter_id:
                return job
        raise ScheduleError(f"unknown job {adapter_id}")

    def _queued(self, now: float) -> list[_Job]:
        """The slot candidates at ``now``: due pending arrivals, then parked."""
        queued = []
        for job in self._pending:
            if job.serve_job.arrival_time > now:
                break  # _pending is arrival-sorted
            queued.append(job)
        queued += self._parked.values()
        return queued

    def _due_candidates(self) -> list[tuple[tuple[float, ...], int]]:
        """Every job eligible for a slot now, best policy rank first.

        Candidates are due pending arrivals plus every parked
        (preempted) job; the returned pairs are ``(policy key,
        adapter id)``, sorted so index 0 is the next job to admit.
        The whole set is ranked in one :func:`~repro.serve.ordering
        .policy_keys` call, which calls the policy's ``key`` on each
        candidate.

        In knapsack mode, when the admission policy exposes
        ``interleave_key`` (and an estimator is set), candidates the
        policy ranks *equal* are further ordered by how tightly their
        length profile packs with the live set's -- the policy's own
        ranking is never overridden, only its ties are broken by
        predicted post-pack waste before the adapter-id fallback.
        """
        now = self.executor.clock
        queued = self._queued(now)
        views = [self._view(job) for job in queued]
        keys = policy_keys(self._policy, views, now)
        if self._interleave is None:
            return sorted(
                (key, view.adapter_id) for key, view in zip(keys, views)
            )
        # Live profiles in adapter-id order: pack_fragmentation sums
        # floats, and a deterministic summand order keeps the bias (and
        # therefore admission order) replay-identical across kernels.
        live = tuple(
            TenantProfile.from_job(self._active[aid].serve_job.job)
            for aid in sorted(self._active)
        )
        ranked = sorted(
            (
                key,
                self._interleave(
                    TenantProfile.from_job(job.serve_job.job), live, self._estimator
                ),
                view.adapter_id,
            )
            for key, view, job in zip(keys, views, queued)
        )
        return [(key, aid) for key, _bias, aid in ranked]

    def _preemption_victim(self, key: tuple[float, ...]) -> int | None:
        """The active job a candidate ranked ``key`` may evict.

        The worst-ranked (largest-key) active job, and only when the
        candidate strictly outranks it -- ties never preempt, which is
        what makes eviction/park/resume cycles terminate.
        """
        now = self.executor.clock
        worst: tuple[tuple[float, ...], int] | None = None
        for adapter_id, job in self._active.items():
            victim_key = self._policy.key(self._view(job, admitted=True), now)
            if victim_key > key and (worst is None or victim_key > worst[0]):
                worst = (victim_key, adapter_id)
        return None if worst is None else worst[1]

    def _shed_doomed(self) -> None:
        """Reject due candidates whose deadline is no longer feasible.

        Only with a :class:`~repro.serve.admission
        .DeadlineFeasibilityAdmission` gate: each due pending arrival is
        priced (expected remaining seconds vs time-to-deadline) and
        doomed ones move to the terminal ``rejected`` state instead of
        taking a slot.  Waiting candidates are re-evaluated every pass,
        so a job that becomes infeasible while queueing is shed then.
        With a ``queueing_aware`` gate the candidate is additionally
        charged this replica's expected wave-time backlog (the planned
        work ahead of it), shedding doomed-under-load work at arrival.
        Parked (preempted) jobs are never shed -- their banked progress
        already cost pipeline time, and eviction is the policy's call,
        not admission's.
        """
        gate = self._gate
        if gate is None:
            return
        now = self.executor.clock
        # Skip pricing the backlog when the gate would zero it anyway.
        wants_backlog = bool(getattr(self.config.admission, "queueing_aware", True))
        backlog = (self.expected_wave_seconds() or 0.0) if wants_backlog else 0.0
        survivors: list[_Job] = []
        for job in self._pending:
            if job.serve_job.arrival_time <= now and not gate(
                self._view(job), now, backlog
            ):
                job.record.rejected_time = now
                self._prices.pop(job.serve_job.adapter_id, None)
                self._churn += 1
            else:
                survivors.append(job)
        self._pending = survivors

    # -- lifecycle -----------------------------------------------------------

    def _admit(self, adapter_id: int) -> None:
        """Give ``adapter_id`` (pending or parked) an adapter slot."""
        job = self._held(adapter_id)
        if self._parked.pop(adapter_id, None) is None:
            self._pending.remove(job)
        self._activate(job)

    def _activate(self, job: _Job) -> None:
        """Seat ``job`` on the executor: fresh, resumed, or migrated in."""
        self._churn += 1
        serve_job = job.serve_job
        if job.record.admit_time is None:
            job.record.admit_time = self.executor.clock
        if job.payload is None:
            self.executor.add_job(serve_job)
        else:
            self.executor.import_job(serve_job, job.payload)
            job.payload = None
        job.next_batch = job.completed
        self._active[serve_job.adapter_id] = job

    def _unseat(self, adapter_id: int) -> _Job:
        """Take an active job (at a step boundary) off the executor.

        Its state is exported into ``payload``.  The splicer's position
        bookkeeping is NOT retired: the job may resume on this same
        stream (after preemption, or a migration bounce), and its next
        batch must still be spaced against the last one it trained here.
        On a true cross-replica move the entries are simply unused.
        """
        job = self._active.pop(adapter_id)
        job.payload = self.executor.export_job(adapter_id)
        self.executor.remove_job(adapter_id)
        return job

    def _preempt(self, adapter_id: int) -> None:
        """Evict an active job (at a step boundary) and park its state."""
        job = self._parked[adapter_id] = self._unseat(adapter_id)
        job.record.preemptions += 1
        self._preemptions += 1
        self._churn += 1

    def _admit_ready(self) -> int:
        """Admit due candidates in policy order; preempt where allowed.

        Runs until the best-ranked candidate can neither take a free
        slot nor (under a preemptive policy) evict a strictly
        worse-ranked active job.  Eviction requires every active job to
        sit at an optimizer-step boundary; when the pipeline is mid
        flight the orchestrator pays a flush first -- which may retire
        jobs and free the slot outright, so the loop re-evaluates after
        draining rather than evicting blindly.
        """
        self._shed_doomed()
        admitted = 0
        while True:
            candidates = self._due_candidates()
            if not candidates:
                break
            if self._slot_budget is None or len(self._active) < self._slot_budget:
                self._admit(candidates[0][1])
                admitted += 1
                continue
            if not self._policy.preemptive:
                break
            victim = self._preemption_victim(candidates[0][0])
            if victim is None:
                break
            if any(j.completed != j.next_batch for j in self._active.values()):
                self._handle_events(self.executor.drain())
                continue
            self._preempt(victim)
        return admitted

    def _retire(self, adapter_id: int) -> None:
        self.executor.remove_job(adapter_id)
        self._splicer.retire(adapter_id)
        del self._active[adapter_id]
        self._prices.pop(adapter_id, None)
        self._churn += 1

    def _handle_events(self, events: list[StepEvent]) -> int:
        """Record optimizer-step completions; retire finished jobs."""
        retired = 0
        for event in events:
            job = self._active.get(event.adapter_id)
            if job is None:
                raise ScheduleError(f"step event for unknown job {event.adapter_id}")
            job.completed += 1
            if not job.remaining:
                job.record.finish_time = event.time
                self._retire(event.adapter_id)
                retired += 1
        return retired

    # -- planning ------------------------------------------------------------

    def _next_window(self) -> int | None:
        """The window for the next wave, adapted to churn.

        Static without :attr:`OrchestratorConfig.adaptive_window`.
        Otherwise: churn since the last wave halves the window (stale
        plans should be short), and a churn-free wave grows it by one
        (stable tenant sets deserve packing quality).
        """
        adaptive = self.config.adaptive_window
        if adaptive is None:
            return self.config.window_batches
        window = self._window if self._window is not None else adaptive.max_batches
        if self._replans == 0:
            # First wave: the configured window really is the starting
            # point -- initial admissions are arrivals, not a plan gone
            # stale, so they must not pre-shrink it.
            pass
        elif self._churn:
            window = max(adaptive.min_batches, window // 2)
        else:
            window = min(adaptive.max_batches, window + 1)
        self._churn = 0
        self._window = window
        return window

    def _wave_entries(self, window: int | None) -> list[tuple[TenantProfile, int]]:
        """Estimator pricing entries for the next wave at ``window``."""
        entries = []
        for job in self._active.values():
            remaining = job.num_batches - job.next_batch
            if remaining <= 0:
                continue
            batches = remaining if window is None else min(window, remaining)
            entries.append((TenantProfile.from_job(job.serve_job.job), batches))
        return entries

    def _merge_discount(self) -> float:
        """The merge fraction folded into wave pricing (knapsack mode).

        The observed fraction of planned microbatches the merge pass has
        eliminated so far, capped at ``_MAX_MERGE_DISCOUNT``.  Only
        meaningful when groups are sticky -- a stable layout makes past
        merge luck predictive of the next wave's -- so it is 0.0 in
        arrival mode.  Also 0.0 with fewer than two live jobs: merging
        needs a head-tail pair, and keeping single-tenant waves
        undiscounted preserves the exact pricing identity the
        autotuner's single-tenant packing collapse relies on.
        """
        if self._grouper is None or len(self._active) < 2:
            return 0.0
        if self._planned_mbs <= 0:
            return 0.0
        return min(_MAX_MERGE_DISCOUNT, self._stats["merges"] / self._planned_mbs)

    def _wave_price(self, window: int | None) -> float:
        """The estimator's price for the next wave (discount folded in)."""
        return self._estimator.wave_seconds(
            self._wave_entries(window),
            replica=self.replica_id,
            merge_discount=self._merge_discount(),
        )

    def _close_wave_estimate(self) -> None:
        """Finalize the in-flight wave's predicted/observed pair.

        Observed time is the executor-clock delta since the wave was
        submitted, minus idle fast-forwards -- so it covers the wave's
        execution plus however much of its pipeline tail drained before
        the next wave (the drain the wave itself caused).  With a
        :class:`~repro.serve.costing.CalibrationTracker` attached to the
        estimator, the pair is also folded into the per-tenant and
        per-replica correction factors -- the feedback step that lets
        future prices absorb this wave's error.
        """
        if self._open_wave is None:
            return
        predicted, start_clock, idle_start, tenants = self._open_wave
        observed = (self.executor.clock - start_clock) - (
            self._idle_advanced - idle_start
        )
        observed = max(0.0, observed)
        self._wave_estimates.append((predicted, observed))
        self._open_wave = None
        if self._estimator is not None and self._estimator.calibration is not None:
            self._estimator.calibration.observe(
                predicted, observed, tenants=tenants, replica=self.replica_id
            )

    def _job_window(self, state: _Job, window: int | None) -> JobWindow:
        """The job's next window: global batches ``[next_batch, end)`` as
        one slice of its samples, with ``next_batch`` as the offset."""
        start, end = state.next_batch, state.num_batches
        if window is not None:
            end = min(end, start + window)
        job = state.serve_job.job
        gbs = job.global_batch_size
        state.next_batch = end
        return JobWindow(
            job.adapter_id, start, gbs, job.dataset.samples[start * gbs : end * gbs]
        )

    def _plan_wave(self) -> list[Microbatch]:
        """Schedule the live jobs' next windows and splice the result.

        Each live job goes to the scheduler as a
        :class:`~repro.scheduler.types.JobWindow` slice of its samples;
        nothing is rebuilt per wave.  A wave of one-batch windows is a
        one-step plan, which skips grouping (for a lone job), merging
        and window-local no-op insertion (see
        :meth:`~repro.scheduler.scheduler.MultiLoRAScheduler.assemble`);
        the bubble-lemma check and the splice's junction no-ops run on
        every wave.

        In knapsack mode the wave is assembled from the sticky grouper's
        pinned layout -- :meth:`~repro.scheduler.scheduler
        .MultiLoRAScheduler.plan_step` packs the given groups instead of
        recomputing head-tail groups from the wave's arrival order --
        and the wave's merge/planned microbatch counts feed the merge
        discount future waves are priced with.
        """
        self._close_wave_estimate()
        window_size = self._next_window()
        predicted = None if self._estimator is None else self._wave_price(window_size)
        wave_jobs: list[PlannedJob] = [
            self._job_window(state, window_size)
            for state in self._active.values()
            if state.next_batch < state.num_batches
        ]
        cfg = self.config.scheduler
        scheduler = MultiLoRAScheduler(wave_jobs, cfg)
        groups: list[list[PlannedJob]] | None = None
        if self._grouper is not None:
            groups = self._grouper.groups_for(
                wave_jobs, cfg.capacity, cfg.padding_multiple
            )
        window = scheduler.assemble(scheduler.plan_step(groups=groups))
        for key in _ACCUMULATED_STATS:
            self._stats[key] += window.stats[key]
        # Merge fraction denominator: merges eliminated that many
        # microbatches from the pre-merge stream, so the pre-merge total
        # is the emitted count plus the merges.
        self._planned_mbs += len(window.microbatches) + window.stats["merges"]
        spliced = self._splicer.splice(window.microbatches, plan_id=self._replans)
        for mb in spliced:
            mb.replica = self.replica_id
        self._replans += 1
        if predicted is not None:
            self._open_wave = (
                predicted,
                self.executor.clock,
                self._idle_advanced,
                tuple(job.adapter_id for job in wave_jobs),
            )
        return spliced

    def _urgent_candidate(self) -> bool:
        """Whether a due candidate warrants cutting the running wave.

        True when the best-ranked due candidate could act right now:
        either a slot is free (admission would succeed) or the policy is
        preemptive and the candidate strictly outranks an active job.
        Doomed arrivals are shed first -- a deadline-infeasible job must
        not buy a pipeline flush it can never use.
        """
        self._shed_doomed()
        candidates = self._due_candidates()
        if not candidates:
            return False
        if self._slot_budget is None or len(self._active) < self._slot_budget:
            return True
        if not self._policy.preemptive:
            return False
        return self._preemption_victim(candidates[0][0]) is not None

    def _cut_wave(self) -> None:
        """Abandon the wave's unsubmitted tail and flush the pipeline.

        Called only at a whole-global-batch point: every batch touched
        so far is fully submitted, so the flush steps them all and
        leaves every active job at an optimizer-step boundary.
        Rewinding ``next_batch`` to ``completed`` returns the
        abandoned batches to the planning horizon, and the splicer
        forgets the phantom tail positions; the next :meth:`step`
        re-admits (possibly preempting) and replans with the urgent
        arrival included.
        """
        self._wave_cuts += 1
        self._churn += 1
        # A cut wave is not a calibration sample: its prediction covered
        # batches that were just rewound (and will be predicted again),
        # so recording (full prediction, partial observation) would bias
        # the ratio upward.
        self._open_wave = None
        self._handle_events(self.executor.drain())
        self._splicer.truncate(len(self.stream))
        for job in self._active.values():
            job.next_batch = job.completed

    def _execute(self, microbatches: list[Microbatch]) -> None:
        interruptible = self.config.mid_wave_admission
        if interruptible:
            # Cut-point bookkeeping: a wave may only be cut where every
            # global batch touched so far is fully submitted, i.e. where
            # the furthest last position of the batches passed (``reach``)
            # lies behind.  Only no-ops carry no assignment, so the
            # largest last position is the last real microbatch.
            last = {
                (a.adapter_id, a.global_batch): i
                for i, mb in enumerate(microbatches)
                for a in mb.assignments
            }
            last_real = max(last.values(), default=-1)
            reach = -1
        for index, mb in enumerate(microbatches):
            if not mb.is_noop:
                for adapter_id in {a.adapter_id for a in mb.assignments}:
                    record = self._records[adapter_id]
                    if record.first_scheduled_time is None:
                        record.first_scheduled_time = self.executor.clock
            self.stream.append(mb)
            self._handle_events(self.executor.submit(mb))
            if not interruptible:
                continue
            for a in mb.assignments:
                reach = max(reach, last[(a.adapter_id, a.global_batch)])
            if index < last_real and reach <= index and self._urgent_candidate():
                self._cut_wave()
                return

    # -- the serving loop ----------------------------------------------------

    def start(self, workload: list[ServeJob] | None = None) -> None:
        """Open the serving session and enqueue an initial workload.

        A session is single-shot (stream and metric state are per-run);
        construct a fresh orchestrator to serve again.

        Args:
            workload: Jobs with distinct adapter ids, any arrival order.
                May be empty when a coordinator routes arrivals in later
                via :meth:`offer`.

        Raises:
            ScheduleError: On double-start, an item that is not a
                :class:`~repro.serve.jobs.ServeJob`, or duplicate adapter
                ids -- the last two before the session is consumed.
        """
        if self._started:
            raise ScheduleError(
                "OnlineOrchestrator is single-shot (stream and metric "
                "state are per-run); construct a fresh orchestrator"
            )
        jobs = workload_jobs(workload or [])
        self._started = True
        for job in jobs:
            self.offer(job)

    def offer(self, job: ServeJob) -> JobRecord:
        """Enqueue one arriving job (a coordinator's routed arrival).

        Args:
            job: The arriving job; its adapter id must be new here.

        Returns:
            The job's fresh lifecycle record.

        Raises:
            ScheduleError: Before :meth:`start`, or on a duplicate id.
        """
        if not self._started:
            raise ScheduleError("offer() requires start() first")
        record = JobRecord(
            adapter_id=job.adapter_id,
            arrival_time=job.arrival_time,
            num_batches=job.job.num_global_batches(),
            total_tokens=job.job.dataset.total_tokens(),
            priority=job.priority,
            deadline=job.deadline,
        )
        self._enqueue(_Job(job, record, record.num_batches))
        return record

    def _claim(self, job: _Job) -> None:
        """Register ``job``'s record; its adapter id must be new here."""
        aid = job.serve_job.adapter_id
        if aid in self._records:
            raise ScheduleError(f"adapter id {aid} already known to this orchestrator")
        self._records[aid] = job.record

    def _enqueue(self, job: _Job) -> None:
        """Register ``job`` and queue it in arrival order."""
        self._claim(job)
        insort(
            self._pending,
            job,
            key=lambda item: (item.serve_job.arrival_time, item.serve_job.adapter_id),
        )

    def has_work(self) -> bool:
        """Whether any job is still pending, parked, or actively training."""
        return bool(self._pending or self._parked or self._active)

    def step(self) -> bool:
        """Advance the serving loop by one iteration.

        One iteration admits due arrivals (preempting under a
        preemptive policy) and then either plans+executes one scheduling
        wave, or (with nothing left to plan) drains the pipeline and
        fast-forwards the clock to the next arrival.

        Returns:
            ``True`` while work remains, ``False`` once the session is
            idle (pending, parked, and active sets all empty).

        Raises:
            ScheduleError: If the loop cannot make progress (an executor
                dropped step events).
        """
        if not self.has_work():
            return False
        progressed = self._admit_ready() > 0
        if any(j.next_batch < j.num_batches for j in self._active.values()):
            self._execute(self._plan_wave())
            return True
        # Nothing left to plan: flush in-flight work, then either the
        # freed slots admit waiting jobs or the clock jumps to the
        # next arrival.
        progressed |= self._handle_events(self.executor.drain()) > 0
        if not self._active and not self._parked and self._pending:
            next_arrival = self._pending[0].serve_job.arrival_time
            if next_arrival > self.executor.clock:
                # Idle fast-forward: excluded from per-wave observed time
                # (it is waiting, not execution).
                self._idle_advanced += next_arrival - self.executor.clock
                self.executor.advance(next_arrival)
                progressed = True
        if not progressed and self._active:
            raise ScheduleError(
                "orchestrator stalled: active jobs are fully scheduled "
                "but never completed (executor dropped step events?)"
            )
        return True

    def finish(self) -> OrchestratorResult:
        """Drain in-flight work and report the session's result."""
        self._handle_events(self.executor.drain())
        self._close_wave_estimate()
        return self._result()

    def run(self, workload: list[ServeJob]) -> OrchestratorResult:
        """Serve ``workload`` to completion (the single-pipeline path).

        Args:
            workload: Jobs with distinct adapter ids, any arrival order.

        Returns:
            Per-job latency records plus stream-level statistics.
        """
        self.start(workload)
        while self.step():
            pass
        return self.finish()

    # -- migration -----------------------------------------------------------

    def eject_job(self, adapter_id: int) -> MigrationTicket:
        """Hand a job off for migration to another replica.

        Pending jobs travel freely; parked (preempted) jobs travel with
        the state exported at eviction time; admitted jobs are
        snapshotted via the executor's ``export_job`` and must sit at an
        optimizer-step boundary (every scheduled batch stepped), which
        is exactly the state between two :meth:`step` calls -- in-flight
        waves are never broken.

        Args:
            adapter_id: A pending, parked, or active (not finished) job.

        Returns:
            The ticket to pass to another orchestrator's
            :meth:`inject_job`.

        Raises:
            ScheduleError: For unknown jobs or a job mid-wave (scheduled
                batches not yet stepped).
        """
        job = self._held(adapter_id)
        if adapter_id in self._active:
            if job.completed != job.next_batch:
                raise ScheduleError(
                    f"job {adapter_id} has scheduled-but-unstepped batches; "
                    "migrate only between waves"
                )
            self._unseat(adapter_id)
        elif self._parked.pop(adapter_id, None) is None:
            self._pending.remove(job)
        self._churn += 1
        self._prices.pop(adapter_id, None)
        del self._records[adapter_id]
        return MigrationTicket(
            job=job.serve_job,
            record=job.record,
            completed=job.completed,
            payload=job.payload,
        )

    def inject_job(self, ticket: MigrationTicket) -> None:
        """Accept a migrated job from another replica.

        A pending ticket queues like a fresh arrival (keeping its original
        record, hence its original arrival time); a state-carrying ticket
        (admitted or parked on the source) is restored onto the executor
        and resumes as an active job at its next global batch.

        A ticket is refused before any state changes unless its record
        belongs to its job, its ``completed`` lies in ``[0,
        num_global_batches)``, and a ticket without a payload has
        ``completed == 0`` (a pending job has banked no steps).

        Args:
            ticket: A ticket from another orchestrator's
                :meth:`eject_job`.

        Raises:
            ScheduleError: Before :meth:`start`, on a duplicate id, on a
                malformed ticket, or when an admitted ticket arrives with
                no free adapter slot (the admission budget holds across
                migration too).
        """
        if not self._started:
            raise ScheduleError("inject_job() requires start() first")
        aid = ticket.adapter_id
        num_batches = ticket.job.job.num_global_batches()
        if ticket.record.adapter_id != aid:
            raise ScheduleError(
                f"ticket for job {aid} carries the record of job "
                f"{ticket.record.adapter_id}"
            )
        if not 0 <= ticket.completed < num_batches:
            raise ScheduleError(
                f"ticket for job {aid}: completed={ticket.completed} outside "
                f"[0, {num_batches})"
            )
        if ticket.payload is None and ticket.completed:
            raise ScheduleError(
                f"pending ticket for job {aid} claims {ticket.completed} "
                "completed steps without executor state"
            )
        job = _Job(
            ticket.job, ticket.record, num_batches, ticket.completed,
            payload=ticket.payload,
        )
        if ticket.payload is None:
            self._enqueue(job)
            return
        if self.slots_free == 0:
            raise ScheduleError(
                f"cannot inject job {aid}: no free adapter slot on this "
                "replica (admission budget applies to migrations too)"
            )
        self._claim(job)
        self._activate(job)

    # -- load introspection (router/rebalancer inputs) -----------------------

    @property
    def clock(self) -> float:
        """The executor's current virtual time."""
        return self.executor.clock

    @property
    def num_active(self) -> int:
        """Jobs currently holding adapter slots."""
        return len(self._active)

    @property
    def num_pending(self) -> int:
        """Jobs queued for a slot (or not yet due)."""
        return len(self._pending)

    @property
    def num_parked(self) -> int:
        """Preempted jobs waiting (with exported state) to resume."""
        return len(self._parked)

    @property
    def slots_free(self) -> int | None:
        """Free adapter slots (``None`` under unbounded admission)."""
        if self._slot_budget is None:
            return None
        return max(0, self._slot_budget - len(self._active))

    def outstanding_batches(self) -> int:
        """Not-yet-stepped global batches across all unfinished jobs.

        This is the load measure routing and rebalancing compare across
        replicas: the work this pipeline still owes its tenants --
        active, parked, and pending alike.
        """
        return sum(job.remaining for job in self._jobs())

    @property
    def wave_estimates(self) -> list[tuple[float, float]]:
        """Per-wave ``(predicted, observed)`` seconds recorded so far.

        A copy of the live record
        (:attr:`~repro.serve.metrics.OrchestratorResult.wave_estimates`
        carries the final one); lets a coordinator or a demo watch
        calibration converge mid-run without touching private state.
        """
        return list(self._wave_estimates)

    def expected_remaining_seconds(self) -> float | None:
        """Expected service seconds this replica still owes (all jobs).

        The seconds-valued counterpart of :meth:`outstanding_batches`:
        every unfinished job -- active, parked (preempted), and pending
        alike -- is priced by the estimator at its remaining batches.
        ``None`` without an estimator.  Each call re-sums the per-job
        price memo in the fixed active, parked, pending order (never a
        running sum), so the total's bits match a fresh recompute; the
        fleet loop reads it once per replica change.
        """
        if self._estimator is None:
            return None
        total = 0.0
        for job in self._jobs():
            total += self._remaining_seconds(job.serve_job.job, job.remaining) or 0.0
        return total

    def expected_wave_seconds(self) -> float | None:
        """Expected seconds of this replica's next planning wave.

        Window-clipped over the live jobs; ``None`` without an
        estimator, ``0.0`` when nothing is left to plan.
        """
        if self._estimator is None:
            return None
        return self._wave_price(self._window)

    def deadline_pressure(self) -> int:
        """Queued deadline jobs this replica can no longer serve in time.

        Counts the due pending arrivals and parked (preempted) jobs
        whose deadline the estimator already prices as missed from here:
        ``clock + remaining_seconds > deadline``.  Active jobs are
        excluded -- they hold a slot and adding capacity cannot speed
        them up; it is the *queued* misses that another replica could
        still save.  This is the SLO-pressure signal
        :class:`~repro.serve.autoscaler.FleetAutoscaler` sums across the
        fleet to force a scale-up even when the backlog alone sits below
        its threshold.  ``0`` without an estimator.
        """
        if self._estimator is None:
            return 0
        now = self.clock
        pressure = 0
        for job in self._queued(now):
            deadline = job.serve_job.deadline
            if deadline is None:
                continue
            seconds = self._price(job)
            if seconds is not None and now + seconds > deadline:
                pressure += 1
        return pressure

    def live_mean_lengths(self) -> list[float]:
        """Mean sample length of each active job (packing-affinity input)."""
        return [job.serve_job.job.mean_length() for job in self._active.values()]

    def live_profiles(self) -> list[TenantProfile]:
        """Length profile of each active job (waste-affinity routing input).

        Adapter-id order, so downstream float sums over the profiles
        (:meth:`~repro.serve.costing.CostEstimator.pack_fragmentation`)
        are order-deterministic across kernels.
        """
        return [
            TenantProfile.from_job(self._active[aid].serve_job.job)
            for aid in sorted(self._active)
        ]

    def live_priorities(self) -> list[int]:
        """Priority class of each active job (headroom-routing input)."""
        return [job.serve_job.priority for job in self._active.values()]

    def migratable_jobs(self) -> list[tuple[int, int, float | None, bool]]:
        """Jobs a rebalancer may move right now, priced in both units.

        Returns:
            ``(adapter_id, remaining_batches, remaining_seconds,
            is_pending)`` tuples: every pending job, every parked
            (preempted) job, plus every active unfinished job sitting at
            a wave boundary.  ``remaining_seconds`` is the
            estimator-priced (calibration-corrected) expected service
            time of the remaining batches, ``None`` without an
            estimator -- the seconds-skew rebalancer picks migrants by
            it, the batch-skew one by the count.
        """
        movable = [(job, True) for job in self._pending]
        movable += [(job, False) for job in self._parked.values()]
        movable += [
            (job, False)
            for job in self._active.values()
            if job.completed == job.next_batch
        ]
        return [
            (job.serve_job.adapter_id, job.remaining, self._price(job), pending)
            for job, pending in movable
        ]

    def drainable_jobs(self) -> list[tuple[int, int, float | None]]:
        """Mid-flight active jobs a partial drain could unlock for moving.

        The complement of the active entries in :meth:`migratable_jobs`:
        jobs holding slots whose scheduled batches have not all stepped
        yet, so :meth:`eject_job` refuses them *now* but a
        :meth:`drain_for` on them would bring them to a boundary.

        Returns:
            ``(adapter_id, remaining_batches, remaining_seconds)``
            tuples, priced exactly like :meth:`migratable_jobs`
            (``remaining_seconds`` is ``None`` without an estimator).
        """
        return [
            (aid, job.remaining, self._price(job))
            for aid, job in self._active.items()
            if job.completed != job.next_batch
        ]

    def drain_for(self, adapter_id: int) -> int:
        """Drain only until ``adapter_id``'s submitted batches step.

        The partial ``drain_then_migrate`` unlock: a full :meth:`flush`
        forces *every* in-flight microbatch to completion, paying
        cooldown bubbles for tenants nobody wants to move.  This drains
        the pipeline just far enough that the chosen migrant's last
        submitted batch has stepped -- the migrant reaches an
        optimizer-step boundary and becomes ejectable while the other
        tenants' pipeline tails stay in flight.  Every executor
        implements :meth:`~repro.serve.executors.Executor.drain_job`
        (one with nothing in flight drains nothing), so the unlock
        always succeeds.  Retirements the drain completes are processed
        normally.

        Args:
            adapter_id: The mid-flight active job to bring to a
                boundary (from :meth:`drainable_jobs`).

        Returns:
            Scheduled-but-unstepped batches still in flight afterwards
            across all active jobs -- the optimizer steps a full flush
            would have forced early, i.e. the work the partial drain
            saved.
        """
        self._handle_events(self.executor.drain_job(adapter_id))
        return sum(job.next_batch - job.completed for job in self._active.values())

    def flush(self) -> int:
        """Drain the pipeline so every active job reaches a step boundary.

        The ``drain_then_migrate`` unlock: between :meth:`step` calls a
        deep pipeline usually still has the wave tail in flight, so
        active jobs sit with scheduled-but-unstepped batches and
        :meth:`eject_job` refuses them.  Draining completes every
        submitted microbatch (paying the flush bubbles), after which all
        active jobs are at optimizer-step boundaries and migratable.
        Retirements the drain completes are processed normally.  See
        :meth:`drain_for` for the partial variant that stops once one
        chosen job reaches its boundary.

        Returns:
            Jobs retired by the drain.
        """
        return self._handle_events(self.executor.drain())

    # -- reporting -----------------------------------------------------------

    def _result(self) -> OrchestratorResult:
        # Derived from the records, the single source of truth for the
        # rejected terminal state.
        rejected = sum(
            1 for r in self._records.values() if r.rejected_time is not None
        )
        if not self.stream:
            # Zero waves ran (nothing was ever admitted): an empty
            # result, not a utilization artifact of an idle executor.
            return OrchestratorResult(records=dict(self._records), rejected=rejected)
        violations = find_violations(self.stream, self.config.scheduler.num_stages)
        return OrchestratorResult(
            records=self._records,
            makespan=self.executor.clock,
            total_tokens=sum(mb.real_tokens for mb in self.stream),
            total_padded_tokens=sum(mb.padded_tokens for mb in self.stream),
            capacity=self.config.scheduler.capacity,
            total_microbatches=len(self.stream),
            noop_microbatches=sum(1 for mb in self.stream if mb.is_noop),
            replans=self._replans,
            splice_noops=self._splicer.noops_inserted,
            utilization=self.executor.utilization(),
            violations=len(violations),
            preemptions=self._preemptions,
            wave_cuts=self._wave_cuts,
            rejected=rejected,
            wave_estimates=list(self._wave_estimates),
            stats=dict(self._stats),
        )
