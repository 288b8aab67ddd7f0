"""The autotuner loop: collapse, simulate, front, recommend.

:func:`tune` is the tentpole entry point.  It takes a trace and a
:class:`~repro.tune.space.SearchSpace` and runs two stages:

1. **Collapse** every candidate to its behavioral representative
   (:func:`~repro.tune.pruner.canonical`), merging configs that would
   replay identically.
2. **Simulate** every representative by replaying the trace through
   the event-driven :class:`~repro.serve.replicaset.ReplicaSet` kernel
   (:func:`evaluate`) and keep the Pareto front of what was measured.

:func:`recommend` turns the front into a capacity plan: given an
:class:`SLOTarget` it returns the cheapest front entry that meets every
named target, or -- when nothing does -- the least-violating entry with
``feasible=False`` so callers can see how far the space falls short.
``docs/tuning.md`` walks through both entry points end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ScheduleError, require_finite
from repro.models.layer_costs import LayerCostModel
from repro.scheduler.scheduler import SchedulerConfig
from repro.serve.config import GPU_HOURLY_RATE, ServeConfig
from repro.serve.jobs import ServeJob
from repro.serve.metrics import ReplicaSetResult
from repro.serve.replicaset import ReplicaSet
from repro.tune.pareto import ObjectivePoint, pareto_front
from repro.tune.pruner import canonical
from repro.tune.space import SearchSpace, default_space

__all__ = [
    "Recommendation",
    "SLOTarget",
    "Trial",
    "TuneReport",
    "evaluate",
    "recommend",
    "tune",
]


@dataclass(frozen=True)
class Trial:
    """One simulated candidate: the bundle and where it landed."""

    config: ServeConfig
    point: ObjectivePoint


@dataclass(frozen=True)
class TuneReport:
    """Everything one :func:`tune` run measured and decided.

    Attributes:
        trials: Every simulated candidate with its measured point, in
            candidate order.
        front: The Pareto-front subset of ``trials``, sorted cheapest
            first (dollars, then JCT, then label) for stable artifacts.
        candidates: Raw cross-product size before any reduction.
        collapsed: Candidates merged away as behaviorally equivalent to
            an earlier one (:func:`~repro.tune.pruner.canonical`).
    """

    trials: tuple[Trial, ...]
    front: tuple[Trial, ...]
    candidates: int
    collapsed: int

    @property
    def simulated(self) -> int:
        """Candidates that were actually replayed (``len(trials)``)."""
        return len(self.trials)


def _check_rate(rate: float) -> None:
    """Refuse a $/GPU-hour rate that would corrupt the dollars axis."""
    require_finite(rate=rate)
    if rate < 0:
        raise ScheduleError(f"rate must be non-negative, got {rate!r}")


def evaluate(
    config: ServeConfig,
    trace: Sequence[ServeJob],
    *,
    cost: LayerCostModel,
    scheduler: SchedulerConfig,
    rate: float = GPU_HOURLY_RATE,
) -> tuple[ObjectivePoint, ReplicaSetResult]:
    """Replay ``trace`` under ``config`` and reduce the run to a point.

    Builds a fresh fleet (:meth:`~repro.serve.config.ServeConfig.build`
    shares no state between calls), runs the event kernel, and maps the
    :class:`~repro.serve.metrics.ReplicaSetResult` onto the tuner's
    axes:

    - ``mean_jct`` is the mean over finished jobs, or ``inf`` when
      nothing finished -- the metrics layer's 0.0 convention would rank
      a fleet that served nobody *best*, the tuner must rank it worst.
    - ``dollars``/``gpu_seconds`` use the recorded bill when the run
      was autoscaled (``replica_intervals`` populated); a fixed fleet
      bills ``num_replicas x makespan`` at ``rate`` (finite, >= 0).
    """
    _check_rate(rate)
    executors, fleet_config = config.build(cost, scheduler)
    result = ReplicaSet(executors, fleet_config).run(list(trace))
    finished = any(
        record.completion_time is not None for record in result.records.values()
    )
    mean_jct = result.mean_completion_time() if finished else float("inf")
    if result.replica_intervals:
        gpu_seconds = result.gpu_seconds
        dollars = result.dollars_spent
    else:
        gpu_seconds = config.num_replicas * result.makespan
        dollars = gpu_seconds / 3600.0 * rate
    point = ObjectivePoint(
        mean_jct=mean_jct,
        goodput=result.deadline_goodput(),
        dollars=dollars,
        gpu_seconds=gpu_seconds,
    )
    return point, result


def _front_key(trial: Trial) -> tuple[float, float, int, str]:
    """Cheapest-first front order for stable reports and artifacts."""
    return (
        trial.point.dollars,
        trial.point.mean_jct,
        -trial.point.goodput,
        trial.config.label(),
    )


def tune(
    trace: Sequence[ServeJob],
    space: SearchSpace | None = None,
    *,
    cost: LayerCostModel,
    scheduler: SchedulerConfig,
    rate: float = GPU_HOURLY_RATE,
) -> TuneReport:
    """Search ``space`` against ``trace`` and return the Pareto front.

    The front equals the front of a simulate-everything sweep: every
    collapse is an exact behavioral identity, and every representative
    is simulated.

    Args:
        trace: The workload to replay (any arrival order).
        space: Candidate axes; :func:`~repro.tune.space.default_space`
            when omitted.
        cost: Profiled layer costs the executors simulate against.
        scheduler: Packing configuration shared by every candidate.
        rate: $/GPU-hour pricing the dollars axis (finite, >= 0).
    """
    if not trace:
        raise ScheduleError("tune() needs a non-empty trace")
    _check_rate(rate)
    space = space if space is not None else default_space()
    raw = space.candidates()
    if not raw:
        raise ScheduleError("the search space enumerates no valid candidate")
    has_deadlines = any(job.deadline is not None for job in trace)
    representatives = dict.fromkeys(
        canonical(candidate, has_deadlines, multi_tenant=len(trace) > 1)
        for candidate in raw
    )
    trials = []
    for config in representatives:
        point, _ = evaluate(config, trace, cost=cost, scheduler=scheduler, rate=rate)
        trials.append(Trial(config=config, point=point))
    front = sorted(pareto_front(trials, lambda t: t.point), key=_front_key)
    return TuneReport(
        trials=tuple(trials),
        front=tuple(front),
        candidates=len(raw),
        collapsed=len(raw) - len(representatives),
    )


@dataclass(frozen=True)
class SLOTarget:
    """A capacity-planning target over the tuner's objective axes.

    Every field is optional; an omitted axis is unconstrained.  All
    named targets must hold at once for a point to qualify.

    Attributes:
        max_mean_jct: Mean JCT ceiling, virtual seconds.
        min_goodput: On-time deadline completions floor.
        max_dollars: Spend ceiling for the whole trace, dollars.
    """

    max_mean_jct: float | None = None
    min_goodput: int | None = None
    max_dollars: float | None = None

    def __post_init__(self) -> None:
        require_finite(max_mean_jct=self.max_mean_jct, max_dollars=self.max_dollars)
        if self.max_mean_jct is not None and self.max_mean_jct <= 0:
            raise ScheduleError("max_mean_jct must be positive")
        if self.min_goodput is not None and self.min_goodput < 0:
            raise ScheduleError("min_goodput must be non-negative")
        if self.max_dollars is not None and self.max_dollars <= 0:
            raise ScheduleError("max_dollars must be positive")

    def violation(self, point: ObjectivePoint) -> float:
        """Summed relative shortfall against the named targets.

        0.0 when the point meets the SLO; each violated axis adds its
        shortfall relative to the target, so violations on different
        axes compare on one unitless scale (``inf`` mean JCT yields
        ``inf``, ranking nothing-served runs as far as possible from
        any JCT target).
        """
        total = 0.0
        if self.max_mean_jct is not None and point.mean_jct > self.max_mean_jct:
            total += (point.mean_jct - self.max_mean_jct) / self.max_mean_jct
        if self.min_goodput is not None and point.goodput < self.min_goodput:
            total += (self.min_goodput - point.goodput) / self.min_goodput
        if self.max_dollars is not None and point.dollars > self.max_dollars:
            total += (point.dollars - self.max_dollars) / self.max_dollars
        return total

    def met_by(self, point: ObjectivePoint) -> bool:
        """Whether the point satisfies every named target."""
        return self.violation(point) == 0.0


@dataclass(frozen=True)
class Recommendation:
    """One config picked off the front against an :class:`SLOTarget`.

    Attributes:
        config: The recommended bundle.
        point: Its measured objective point on the tuning trace.
        feasible: Whether the point meets every named SLO target; when
            False, ``config`` is the least-violating front entry and
            the caller should read the gap off ``point``.
        report: The full :class:`TuneReport` behind the pick, for
            drill-down into the rest of the front.
    """

    config: ServeConfig
    point: ObjectivePoint
    feasible: bool
    report: TuneReport = field(repr=False)


def recommend(
    trace: Sequence[ServeJob],
    slo: SLOTarget,
    *,
    cost: LayerCostModel,
    scheduler: SchedulerConfig,
    space: SearchSpace | None = None,
    rate: float = GPU_HOURLY_RATE,
) -> Recommendation:
    """Capacity planning: the cheapest front config that meets ``slo``.

    Runs :func:`tune` and picks from the front: among SLO-meeting
    entries, the minimum by (dollars, fleet size, mean JCT, label) --
    i.e. the smallest spend, smallest fleet that serves the trace
    within target.  When no front entry qualifies, returns the
    least-violating one with ``feasible=False``: the front is the set
    of best achievable trade-offs, so its least-violating member is the
    space's closest approach to the SLO.  Raises
    :class:`~repro.errors.ScheduleError` on the inputs :func:`tune`
    refuses (empty trace, non-finite or negative ``rate``).
    """
    report = tune(trace, space, cost=cost, scheduler=scheduler, rate=rate)
    qualifying = [t for t in report.front if slo.met_by(t.point)]
    if qualifying:
        pick = min(
            qualifying,
            key=lambda t: (
                t.point.dollars,
                t.config.num_replicas,
                t.point.mean_jct,
                t.config.label(),
            ),
        )
        return Recommendation(pick.config, pick.point, True, report)
    pick = min(
        report.front,
        key=lambda t: (slo.violation(t.point), _front_key(t)),
    )
    return Recommendation(pick.config, pick.point, False, report)
