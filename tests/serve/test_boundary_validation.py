"""Public serve constructors reject non-finite numbers with a typed error.

A NaN passes every ``x < 0`` range check (comparisons with NaN are
false), and an infinity is no sane rate, time or price; both must stop
at the boundary as :class:`~repro.errors.ScheduleError`.  ``None`` keeps
meaning "off" wherever a knob is optional.
"""

import math

import pytest

from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import SchedulerConfig
from repro.serve import (
    AdaptiveWindowConfig,
    CapacityPool,
    CostEstimator,
    DeadlineFeasibilityAdmission,
    DeadlineOrdering,
    GatewayLimits,
    OrchestratorConfig,
    PriorityOrdering,
    ReclamationNotice,
    ReplicaSetConfig,
    ServeConfig,
    SlotAdmission,
    SRPTOrdering,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


def pool(**overrides):
    kwargs = {"name": "spot", "gpu": "l40s", "hourly_rate": 1.0, "limit": 2}
    return CapacityPool(**{**kwargs, **overrides})


def notice(**overrides):
    return ReclamationNotice(**{"time": 1.0, "count": 1, "deadline": 5.0, **overrides})


def serve_config(**overrides):
    # The orderings that take an aging_rate; FCFS refuses any.
    base = {"ordering": "srpt"} if "aging_rate" in overrides else {}
    return ServeConfig(**{**base, **overrides})


def gate(**overrides):
    return DeadlineFeasibilityAdmission(slots=SlotAdmission(1), **overrides)


SCHEDULER = SchedulerConfig(capacity=8192, num_stages=1, use_milp=False)
# An estimator, so a seconds-valued migration threshold is allowed at all.
ORCHESTRATOR = OrchestratorConfig(
    scheduler=SCHEDULER,
    estimator=CostEstimator.for_scheduler(
        LayerCostModel(LLAMA3_8B, H100), SCHEDULER
    ),
)


def replica_set_config(**overrides):
    return ReplicaSetConfig(orchestrator=ORCHESTRATOR, **overrides)


FIELDS = [
    (GatewayLimits, "rate"),
    (GatewayLimits, "burst"),
    (GatewayLimits, "fairness_share"),
    (GatewayLimits, "ingress_hold"),
    (serve_config, "aging_rate"),
    (serve_config, "gate_slack"),
    (serve_config, "migration_time_threshold"),
    (serve_config, "autoscale_budget"),
    (serve_config, "gateway_rate"),
    (serve_config, "gateway_burst"),
    (serve_config, "gateway_fairness"),
    (serve_config, "gateway_hold"),
    (pool, "hourly_rate"),
    (pool, "speed_factor"),
    (notice, "time"),
    (notice, "deadline"),
    (SRPTOrdering, "aging_rate"),
    (PriorityOrdering, "aging_rate"),
    (DeadlineOrdering, "aging_rate"),
    (gate, "slack"),
    (AdaptiveWindowConfig, "target_wave_seconds"),
    (replica_set_config, "migration_threshold"),
    (replica_set_config, "migration_time_threshold"),
]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, name", FIELDS, ids=[f"{b.__name__}.{n}" for b, n in FIELDS]
)
def test_non_finite_field_is_rejected(build, name, value):
    with pytest.raises(ScheduleError):
        build(**{name: value})


@pytest.mark.parametrize(
    "build, name",
    [
        (GatewayLimits, "rate"),
        (GatewayLimits, "fairness_share"),
        (serve_config, "migration_time_threshold"),
        (serve_config, "autoscale_budget"),
        (serve_config, "gateway_rate"),
        (serve_config, "gateway_fairness"),
        (AdaptiveWindowConfig, "target_wave_seconds"),
        (replica_set_config, "migration_threshold"),
        (replica_set_config, "migration_time_threshold"),
    ],
)
def test_none_still_means_off(build, name):
    build(**{name: None})

