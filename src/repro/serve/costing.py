"""The cost estimator: price serving decisions in expected seconds.

Every control-plane decision the serving layer makes -- where to route a
tenant, who gets the next adapter slot, whether a deadline is still
feasible, how many batches to plan per wave -- needs a notion of "how
much work is that?".  Counting global batches is the obvious proxy, but
multi-tenant LoRA fleets are heterogeneous by construction: two jobs
with equal outstanding-batch counts can differ 5-10x in wall-clock cost
once sample lengths, attention quadratics, and packing density enter.
The :class:`CostEstimator` closes that gap by pricing jobs, placements,
and planning waves in **expected seconds**, using the same calibrated
:class:`~repro.models.layer_costs.LayerCostModel` the pipeline
simulator executes against, plus each tenant's observed length
distribution (:class:`TenantProfile`).

The estimate starts out *a priori*: it is computed from the tenant's
length distribution before the scheduler has packed a single
microbatch, because that is the information available at routing and
admission time.  Packing fragmentation, head-tail merging, and pipeline
stalls therefore perturb the observed time; the orchestrator records
per-wave predicted/observed pairs
(:attr:`~repro.serve.metrics.OrchestratorResult.wave_estimates`) so the
estimator's honesty is itself a tested, benchmarked quantity.  The
documented tolerance is :data:`CALIBRATION_TOLERANCE`: the
predicted/observed ratio stays within ``[1/tol, tol]`` on the shipped
executors (``tests/serve/test_costing.py`` asserts it property-style
over random tenant mixes, ``benchmarks/bench_cost_routing.py`` gates
the committed numbers).

The estimate does not have to *stay* a priori.  A
:class:`CalibrationTracker` closes the loop: the orchestrator feeds
every wave's ``(predicted, observed)`` pair back in, the tracker folds
the ratio into smoothed per-tenant and per-replica correction factors,
and the estimator multiplies future job/placement/wave prices by them.
With the feedback active the honesty band tightens to
:data:`CORRECTED_CALIBRATION_TOLERANCE` (``benchmarks/
bench_calibration.py`` gates the win on a drifting trace where the a
priori moments go stale mid-run).

No serving module is imported here (only models/scheduler/distsim), so
ordering, admission, routing, and orchestration are all free to build
on the estimator without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.distsim.systems import stage_times
from repro.errors import ScheduleError
from repro.models.layer_costs import LayerCostModel, MicrobatchShape
from repro.scheduler.scheduler import SchedulerConfig
from repro.scheduler.types import AdapterJob, Microbatch

__all__ = [
    "CALIBRATION_TOLERANCE",
    "CORRECTED_CALIBRATION_TOLERANCE",
    "TenantProfile",
    "CalibrationTracker",
    "CostEstimator",
]

#: Documented honesty bound for the **uncorrected** (a priori) estimator:
#: the per-run predicted/observed wave-time ratio stays within
#: ``[1/CALIBRATION_TOLERANCE, CALIBRATION_TOLERANCE]`` on the streaming
#: pipeline simulator.  The slack covers what the a priori estimate
#: cannot see: packing fragmentation and per-adapter padding (observed >
#: predicted), head-tail merging (observed < predicted), and pipeline
#: fill/stall effects.
CALIBRATION_TOLERANCE = 2.0

#: Tightened honesty bound once feedback correction is active: with a
#: :class:`CalibrationTracker` folding observed/predicted ratios back
#: into the estimator, the per-run ratio must stay within
#: ``[1/CORRECTED_CALIBRATION_TOLERANCE, CORRECTED_CALIBRATION_TOLERANCE]``
#: -- the correction absorbs the persistent component of the error the
#: wide band existed for, so a corrected run is held to the narrow one.
CORRECTED_CALIBRATION_TOLERANCE = 1.5


@dataclass(frozen=True)
class TenantProfile:
    """A tenant's observed sample-length distribution, as pricing input.

    Attributes:
        mean_length: Mean sample token length (first moment -- drives the
            linear kernel terms).
        mean_sq_length: Mean *squared* sample length (second moment --
            drives the quadratic attention term; a long-sample tenant
            costs more attention time than its token count suggests).
        batch_samples: Average samples per global batch (the dataset's
            sample count over its batch count, so a short final batch is
            priced pro rata).
    """

    mean_length: float
    mean_sq_length: float
    batch_samples: float

    def __post_init__(self) -> None:
        if self.mean_length <= 0 or self.batch_samples <= 0:
            raise ScheduleError("TenantProfile moments must be positive")
        if self.mean_sq_length < self.mean_length**2:
            raise ScheduleError(
                "mean_sq_length below mean_length^2 is not a distribution"
            )

    @classmethod
    def from_job(cls, job: AdapterJob) -> "TenantProfile":
        """Profile of one job's dataset (its observed length stream).

        Cheap to call in hot decision loops: the dataset caches its
        length moments
        (:meth:`~repro.data.dataset.FinetuneDataset.length_moments`),
        and the built profile itself is cached on the dataset (keyed by
        the batch size, the only other input) so repeated pricing of
        the same tenant skips construction and validation entirely.
        """
        dataset = job.dataset
        cached = dataset.__dict__.get("_tenant_profile")
        if cached is not None and cached[0] == job.global_batch_size:
            return cached[1]
        mean, mean_sq = dataset.length_moments()
        profile = cls(
            mean_length=mean,
            mean_sq_length=mean_sq,
            batch_samples=len(dataset) / job.num_global_batches(),
        )
        dataset.__dict__["_tenant_profile"] = (job.global_batch_size, profile)
        return profile


@dataclass
class CalibrationTracker:
    """Feedback-corrected calibration: smoothed observed/predicted factors.

    The orchestrator already records every wave's ``(predicted,
    observed)`` seconds pair; this tracker turns that record into a
    *correction*.  Each :meth:`observe` call folds the wave's
    observed/predicted ratio into an exponentially-weighted moving
    factor -- one per tenant that ran in the wave and one per replica
    the wave ran on -- and :meth:`correction` returns the multiplier the
    :class:`CostEstimator` applies to future prices.

    The update is geometric (EWMA in log space), the natural smoothing
    for a multiplicative quantity: with corrected predictions fed back
    in, ``factor *= ratio**alpha`` is an integral controller on the log
    error, algebraically identical to a geometric EWMA of the *raw*
    observed/predicted ratio with weight ``alpha``.  A perfectly honest
    estimator therefore keeps every factor at 1.0; a tenant whose waves
    keep running 2x longer than priced converges to a factor of 2.0 at
    rate ``alpha`` per wave, and a drift back re-converges the same way.

    What it corrects -- and what it cannot: the tracker removes the
    *persistent, per-tenant/per-replica* component of the estimator's
    error (stale length moments, systematic packing-density bias, a
    replica's constant overhead).  Per-wave noise (merge luck, stall
    alignment) is zero-mean by construction and stays inside the
    residual band, which is why the corrected contract is
    :data:`CORRECTED_CALIBRATION_TOLERANCE`, not 1.0.

    Attributes:
        alpha: EWMA weight of the newest wave's ratio, in ``(0, 1]``
            (1.0 = trust only the latest wave; small = smooth slowly).
        max_correction: Clamp on every factor: corrections stay within
            ``[1/max_correction, max_correction]`` so one pathological
            wave (or a mispriced empty one) cannot poison future
            decisions.
    """

    alpha: float = 0.4
    max_correction: float = 4.0
    _tenant: dict[int, float] = field(default_factory=dict, repr=False)
    _replica: dict[int, float] = field(default_factory=dict, repr=False)
    _version: int = field(default=0, repr=False)
    _last_tenants: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ScheduleError("alpha must be in (0, 1]")
        if self.max_correction < 1:
            raise ScheduleError("max_correction must be at least 1")

    def _fold(self, table: dict[int, float], key: int, ratio: float) -> None:
        updated = table.get(key, 1.0) * ratio**self.alpha
        table[key] = min(self.max_correction, max(1 / self.max_correction, updated))

    def observe(
        self,
        predicted: float,
        observed: float,
        tenants: Iterable[int] = (),
        replica: int | None = None,
    ) -> None:
        """Fold one wave's outcome into the correction factors.

        Args:
            predicted: The wave price the control plane actually used
                (corrected, when correction was already active -- the
                update then smooths the *residual* error).
            observed: Executor seconds the wave consumed (idle excluded).
            tenants: Adapter ids that ran in the wave (each one's factor
                absorbs the ratio).
            replica: Replica the wave ran on (its factor absorbs it too).

        Non-positive pairs are ignored: a wave that consumed no
        observable time (or was never priced) carries no signal.
        """
        if predicted <= 0 or observed <= 0:
            return
        tenants = tuple(tenants)
        ratio = observed / predicted
        for adapter_id in tenants:
            self._fold(self._tenant, adapter_id, ratio)
        if replica is not None:
            self._fold(self._replica, replica, ratio)
        self._version += 1
        self._last_tenants = tenants

    def seed_replica(self, replica: int, factor: float) -> None:
        """Install a prior per-replica factor before any wave runs.

        A replica joining the fleet on *slower hardware* would otherwise
        be priced as if it were the reference GPU until enough waves
        close on it for :meth:`observe` to converge -- and during that
        window :class:`~repro.serve.router.CostAwareRouting` and
        deadline admission over-commit it.  Seeding writes the known
        speed ratio (e.g. an L40S joining an A100 fleet seeds the
        L40S/A100 step-time ratio) straight into the per-replica table;
        later observations refine it exactly as if it had been learned.

        Bumps :attr:`version` with an empty
        :attr:`last_observed_tenants`, so version-watching caches
        invalidate the seeded replica's prices without touching any
        tenant's.

        Args:
            replica: Replica index receiving the prior.
            factor: Expected observed/predicted ratio (> 0; > 1 means
                slower than the reference hardware the
                :class:`CostEstimator`'s cost model was built for).
                Clamped to the tracker's correction band.
        """
        if factor <= 0:
            raise ScheduleError("seed factor must be positive")
        self._replica[replica] = min(
            self.max_correction, max(1 / self.max_correction, factor)
        )
        self._version += 1
        self._last_tenants = ()

    @property
    def version(self) -> int:
        """Observations folded so far (a cache-invalidation stamp).

        Corrections change only inside :meth:`observe`, so a caller
        caching prices derived from this tracker can compare versions
        instead of snapshotting factor tables -- the event-driven fleet
        kernel uses it to notice when a wave close on one replica
        repriced a tenant that has since migrated elsewhere.
        """
        return self._version

    @property
    def last_observed_tenants(self) -> tuple[int, ...]:
        """Tenants whose factors the most recent :meth:`observe` folded.

        Paired with :attr:`version`: when exactly one observation
        landed since a caller's snapshot, these are the only tenants
        whose prices can have changed (plus the observing replica's own
        fallback factor).
        """
        return self._last_tenants

    def correction(
        self, adapter_id: int | None = None, replica: int | None = None
    ) -> float:
        """The price multiplier for a decision about one job or wave.

        The most specific signal wins: a tracked per-tenant factor, else
        the tracked per-replica factor, else 1.0 (never both -- each
        factor already absorbed the full wave ratio, so stacking them
        would double-correct).
        """
        if adapter_id is not None and adapter_id in self._tenant:
            return self._tenant[adapter_id]
        if replica is not None and replica in self._replica:
            return self._replica[replica]
        return 1.0

    def tracks_tenant(self, adapter_id: int) -> bool:
        """Whether a per-tenant factor exists for ``adapter_id``.

        When it does, :meth:`correction` returns that factor regardless
        of the ``replica`` argument -- the batched pricing paths use
        this to collapse a per-replica correction gather into one scalar
        multiply.
        """
        return adapter_id in self._tenant

    def tenant_corrections(self) -> dict[int, float]:
        """Current per-tenant factors (a copy; introspection/reporting)."""
        return dict(self._tenant)


def _bottleneck(fwd: tuple[float, ...], bwd: tuple[float, ...]) -> float:
    """The slowest stage's fwd+bwd seconds: one microbatch slot."""
    return max(f + b for f, b in zip(fwd, bwd))


def _roundtrip(fwd: tuple[float, ...], bwd: tuple[float, ...]) -> float:
    """Every stage's fwd and bwd seconds: one full pipeline traversal."""
    return sum(fwd) + sum(bwd)


class CostEstimator:
    """Prices jobs, placements, and waves in expected seconds.

    All estimates reduce to one primitive: the bottleneck-stage
    forward+backward time of a microbatch slot under fwd-first 1F1B
    (:meth:`microbatch_seconds`).  In steady state the pipeline retires
    one microbatch per bottleneck-stage period, so a stream of ``M``
    microbatches costs ``sum of bottleneck times`` plus a fill term of
    ``num_stages - 1`` slots -- the same arithmetic the streaming
    simulator's makespan converges to.  Job, placement and wave prices
    share one memo per ``(profile, concurrency)``: a single
    :func:`~repro.distsim.systems.stage_times` call gives both its
    bottleneck and its round-trip seconds.

    With a :class:`CalibrationTracker` attached, every identity-carrying
    price (:meth:`job_seconds`, :meth:`placement_seconds`,
    :meth:`wave_seconds`) is additionally multiplied by the tracked
    correction factor -- per tenant when the job is known, per replica
    otherwise -- so the feedback the orchestrator records flows back
    into the next decision.  One estimator (and one tracker) may be
    shared across replicas: corrections are keyed by the ``replica``
    argument the caller passes, not by estimator instance.

    Args:
        cost: The calibrated layer cost model (shared with the
            executor, so predictions and observations price kernels
            identically).
        num_stages: Pipeline depth.
        capacity: Microbatch token budget (packing density input).
        padding_multiple: Per-adapter padding granule ``P``.
        calibration: Feedback correction state; ``None`` keeps the
            estimator purely a priori (the pre-feedback behavior).
    """

    def __init__(
        self,
        cost: LayerCostModel,
        num_stages: int,
        capacity: int,
        padding_multiple: int = 64,
        calibration: CalibrationTracker | None = None,
    ) -> None:
        if num_stages <= 0:
            raise ScheduleError("num_stages must be positive")
        if capacity <= 0 or padding_multiple <= 0:
            raise ScheduleError("capacity and padding_multiple must be positive")
        self.cost = cost
        self.num_stages = num_stages
        self.capacity = capacity
        self.padding_multiple = padding_multiple
        self.calibration = calibration
        # Hot-path memos.  Every entry is a pure function of its key
        # (profiles are frozen, the cost model is fixed at construction),
        # so memoization changes no price -- it only collapses the
        # per-decision stage-time arithmetic that otherwise dominates
        # fleet-scale control loops.
        self._terms_cache: dict[
            tuple[TenantProfile, int], tuple[int, float, float]
        ] = {}
        self._step_cache: float | None = None

    @classmethod
    def for_scheduler(
        cls,
        cost: LayerCostModel,
        scheduler: SchedulerConfig,
        calibration: CalibrationTracker | None = None,
    ) -> "CostEstimator":
        """An estimator matching a scheduler's packing parameters."""
        return cls(
            cost,
            num_stages=scheduler.num_stages,
            capacity=scheduler.capacity,
            padding_multiple=scheduler.padding_multiple,
            calibration=calibration,
        )

    def _correction(
        self, adapter_id: int | None = None, replica: int | None = None
    ) -> float:
        """The tracked price multiplier (1.0 without a tracker)."""
        if self.calibration is None:
            return 1.0
        return self.calibration.correction(adapter_id=adapter_id, replica=replica)

    # -- primitives ---------------------------------------------------------

    def microbatch_seconds(self, shape: MicrobatchShape) -> float:
        """Bottleneck-stage fwd+bwd seconds of one microbatch slot.

        Under fwd-first 1F1B every stage runs one forward and one
        backward per slot, so the slowest stage's fwd+bwd sum is the
        steady-state period per microbatch.
        """
        if shape.tokens <= 0:
            return 0.0
        return _bottleneck(*stage_times(self.cost, shape, self.num_stages))

    def roundtrip_seconds(self, shape: MicrobatchShape) -> float:
        """Full pipeline traversal (all stages, fwd+bwd) of one microbatch.

        The per-global-batch *serialization* floor: a tenant's batch
        ``j+1`` cannot start before batch ``j``'s last backward (the
        bubble lemma), so a lone microbatch pays the whole pipeline
        round trip, not just the bottleneck stage.
        """
        if shape.tokens <= 0:
            return 0.0
        return _roundtrip(*stage_times(self.cost, shape, self.num_stages))

    def _batch_shape(
        self, profile: TenantProfile, num_adapters: int
    ) -> tuple[int, MicrobatchShape]:
        """``(microbatches, microbatch shape)`` of one global batch."""
        tokens = profile.batch_samples * profile.mean_length
        padded = math.ceil(tokens / self.padding_multiple) * self.padding_multiple
        num_mbs = max(1, math.ceil(padded / self.capacity))
        # Positional: a NamedTuple built by keyword costs about twice as much.
        shape = MicrobatchShape(
            max(1, round(padded / num_mbs)),  # tokens
            profile.batch_samples / num_mbs * profile.mean_sq_length,  # sum_sq_len
            max(1, num_adapters),
        )
        return num_mbs, shape

    def _terms(
        self, profile: TenantProfile, num_adapters: int
    ) -> tuple[int, float, float]:
        """``(microbatches, bottleneck seconds, roundtrip seconds)`` of one
        global batch at ``num_adapters`` concurrency.

        Memoized per ``(profile, concurrency)``, and filled by one
        :func:`~repro.distsim.systems.stage_times` call that both
        reductions share (:meth:`microbatch_seconds` and
        :meth:`roundtrip_seconds` reduce the same way): the stage-time
        sweep is the expensive part of every job, placement and wave
        price, and fleets re-price the same tenants constantly.
        """
        key = (profile, num_adapters)
        terms = self._terms_cache.get(key)
        if terms is None:
            num_mbs, shape = self._batch_shape(profile, num_adapters)
            fwd, bwd = stage_times(self.cost, shape, self.num_stages)
            terms = (num_mbs, _bottleneck(fwd, bwd), _roundtrip(fwd, bwd))
            self._terms_cache[key] = terms
        return terms

    def _step_seconds(self) -> float:
        """The (fixed) optimizer-step price, computed once."""
        if self._step_cache is None:
            self._step_cache = self.cost.optimizer_step_time()
        return self._step_cache

    # -- decision prices ----------------------------------------------------

    def batch_seconds(self, profile: TenantProfile, num_adapters: int = 1) -> float:
        """Expected seconds one global batch of ``profile`` costs.

        Args:
            profile: The tenant's length distribution.
            num_adapters: Adapters sharing the tenant's microbatches
                (prices the multi-adapter kernel; 1 = the tenant packs
                alone, the scheduler's common case).
        """
        num_mbs, mb_seconds, _ = self._terms(profile, num_adapters)
        return num_mbs * mb_seconds + self._step_seconds()

    def job_seconds(
        self,
        job: AdapterJob,
        remaining_batches: int | None = None,
        num_adapters: int = 1,
        replica: int | None = None,
    ) -> float:
        """Expected seconds of service a job still needs.

        Args:
            job: The job (its dataset supplies the length profile).
            remaining_batches: Global batches left (``None`` = the whole
                job; pass banked progress for preempted/active jobs).
            num_adapters: Concurrency the job's kernels are priced at.
            replica: Replica the price is for -- the calibration
                fallback key when the tenant itself is untracked.
        """
        batches = (
            job.num_global_batches()
            if remaining_batches is None
            else remaining_batches
        )
        if batches <= 0:
            return 0.0
        raw = batches * self.batch_seconds(TenantProfile.from_job(job), num_adapters)
        return raw * self._correction(adapter_id=job.adapter_id, replica=replica)

    def placement_seconds(
        self, job: AdapterJob, num_active: int, replica: int | None = None
    ) -> float:
        """Marginal expected seconds ``job`` adds to a replica's backlog.

        Prices the job's whole service at the concurrency it would run
        at after placement (``num_active + 1`` adapters), so a crowded
        replica is charged the multi-adapter kernel overhead the
        newcomer would actually pay there.  Calibration-corrected like
        :meth:`job_seconds` (pass ``replica`` for the per-replica
        fallback factor).
        """
        return self.job_seconds(job, num_adapters=num_active + 1, replica=replica)

    # -- candidate sets -----------------------------------------------------

    def job_seconds_batch(
        self,
        jobs: Sequence[AdapterJob],
        remaining_batches: Sequence[int | None] | None = None,
        num_adapters: int = 1,
        replica: int | None = None,
    ) -> np.ndarray:
        """:meth:`job_seconds` of each job, as a float64 array.

        Args:
            jobs: The candidate jobs.
            remaining_batches: Per-job batches left (``None`` entries --
                or ``None`` for the whole argument -- price the full
                job).
            num_adapters: Concurrency every candidate is priced at.
            replica: Calibration fallback key, as in :meth:`job_seconds`.
        """
        if remaining_batches is None:
            remaining_batches = [None] * len(jobs)
        return np.fromiter(
            (
                self.job_seconds(job, left, num_adapters, replica)
                for job, left in zip(jobs, remaining_batches)
            ),
            dtype=np.float64,
            count=len(jobs),
        )

    def placement_seconds_batch(
        self,
        job: AdapterJob,
        num_active: "Sequence[int] | np.ndarray",
        replicas: "Sequence[int | None] | np.ndarray | None" = None,
    ) -> np.ndarray:
        """Price one arrival against many candidate replicas at once.

        Element ``i`` is ``placement_seconds(job, num_active[i],
        replicas[i])``.  The raw prices come from a concurrency table:
        ``np.bincount`` finds the concurrencies present, each one is
        priced once through :meth:`batch_seconds`, in ascending order,
        and one gather hands every candidate its row.  Concurrencies no
        candidate has are never priced, so the estimator's memos see
        exactly one call per distinct value; fleets concentrate on few
        distinct ``num_active`` values, so a 1000-replica routing
        decision costs a handful of estimator evaluations plus one
        correction multiply.

        Args:
            job: The arriving job.
            num_active: Per-candidate active-job counts (the job would
                run at ``num_active[i] + 1`` adapters there).
            replicas: Per-candidate replica ids for the calibration
                fallback factor (``None`` skips it).

        Returns:
            A float64 array of marginal expected seconds, one per
            candidate.
        """
        batches = job.num_global_batches()
        active = np.asarray(num_active, dtype=np.int64)
        present = np.bincount(active)
        table = np.zeros(len(present), dtype=np.float64)
        if batches > 0:
            profile = TenantProfile.from_job(job)
            for value in np.flatnonzero(present).tolist():
                table[value] = batches * self.batch_seconds(profile, value + 1)
        raw = table[active]
        if self.calibration is None:
            return raw
        if self.calibration.tracks_tenant(job.adapter_id):
            # The tenant factor shadows every replica factor: one scalar
            # multiply replaces the per-candidate gather.
            return raw * self.calibration.correction(adapter_id=job.adapter_id)
        if replicas is None:
            replicas = [None] * len(num_active)
        corrections = np.fromiter(
            (
                self.calibration.correction(
                    adapter_id=job.adapter_id, replica=replica
                )
                for replica in replicas
            ),
            dtype=np.float64,
            count=len(num_active),
        )
        return raw * corrections

    def pack_fragmentation(self, profiles: Sequence[TenantProfile]) -> float:
        """Predicted post-pack waste of co-residing these tenants.

        The fraction of bin capacity the co-resident set's per-step
        padded token masses would leave unfilled: each profile
        contributes one global batch's padded tokens, the set needs
        ``ceil(sum / capacity)`` bins, and the returned value is
        ``1 - sum / (bins * capacity)``.  Zero for an empty set and for
        sets whose masses land exactly on a capacity multiple.  A pure
        function of the profiles and the packing parameters -- no
        calibration, no replica identity -- so admission interleaving
        and routing affinity can share it and stay deterministic.
        """
        tokens = 0.0
        for profile in profiles:
            raw = profile.batch_samples * profile.mean_length
            tokens += math.ceil(raw / self.padding_multiple) * self.padding_multiple
        if tokens <= 0:
            return 0.0
        bins = max(1, math.ceil(tokens / self.capacity))
        return 1.0 - tokens / (bins * self.capacity)

    def wave_seconds(
        self,
        entries: list[tuple[TenantProfile, int]],
        replica: int | None = None,
        merge_discount: float = 0.0,
    ) -> float:
        """Expected seconds one planning wave takes to execute.

        Args:
            entries: ``(profile, window batches)`` per live job in the
                wave.
            replica: Replica the wave would run on; with a
                :class:`CalibrationTracker` the whole wave price is
                multiplied by that replica's correction factor (wave
                entries carry no tenant identity, so the replica factor
                is the most specific signal available).
            merge_discount: Fraction of the steady-state bound the merge
                pass is expected to recover, in ``[0, 1)``.  Only
                meaningful when grouping is *sticky* (the same layout
                replays wave after wave), which is what makes the
                observed merge fraction a predictor of the next wave's;
                the serialization bound is never discounted -- merging
                shares microbatches, it cannot shorten one tenant's
                batch chain.

        Returns:
            The larger of two lower bounds: the steady-state bound (sum
            of bottleneck-stage microbatch times plus ``num_stages - 1``
            pipeline-fill slots) and the serialization bound (the
            longest single tenant's batch chain -- consecutive global
            batches of one adapter cannot overlap, so a tenant whose
            batches fill fewer microbatches than the pipeline has
            stages pays full round trips, not bottleneck periods).
            With ``merge_discount`` the steady-state bound is scaled by
            ``1 - merge_discount`` before the max.
        """
        if not 0.0 <= merge_discount < 1.0:
            raise ScheduleError(
                f"merge_discount must be in [0, 1), got {merge_discount}"
            )
        total = 0.0
        total_mbs = 0
        longest_chain = 0.0
        for profile, batches in entries:
            if batches <= 0:
                continue
            num_mbs, mb_seconds, roundtrip = self._terms(profile, 1)
            step = self._step_seconds()
            total += batches * (num_mbs * mb_seconds + step)
            total_mbs += batches * num_mbs
            chain = batches * (
                (num_mbs - 1) * mb_seconds
                + roundtrip
                + step
            )
            longest_chain = max(longest_chain, chain)
        if total_mbs:
            total += (self.num_stages - 1) * (total / total_mbs)
        total *= 1.0 - merge_discount
        return max(total, longest_chain) * self._correction(replica=replica)

    def schedule_seconds(self, microbatches: list[Microbatch]) -> float:
        """Price an already-planned microbatch stream (no-ops are free).

        The a posteriori companion of :meth:`wave_seconds`: exact
        shapes instead of distribution moments.  Useful for comparing a
        plan against the simulator without running it.
        """
        return sum(
            self.microbatch_seconds(mb.shape())
            for mb in microbatches
            if not mb.is_noop
        )
