"""Public serve constructors reject non-finite numbers with a typed error.

A NaN passes every ``x < 0`` range check (comparisons with NaN are
false), and an infinity is no sane rate, time or price; both must stop
at the boundary as :class:`~repro.errors.ScheduleError`, and so must a
value that is no number at all.  ``None`` keeps meaning "off" wherever
a knob is optional.  Integer knobs (and a job's batch size, offset and
dataset) refuse a value of the wrong type the same way, by name.
"""

import math

import numpy as np
import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
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
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
)
from repro.tune import SLOTarget

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


JOB = AdapterJob(0, synthetic_dataset(0, "xsum", 2, seed=0), 1)


def serve_job(**overrides):
    return ServeJob(**{"job": JOB, "arrival_time": 0.0, **overrides})


def slo_target(**overrides):
    return SLOTarget(**{"max_mean_jct": 10.0, **overrides})


#: Every field above, plus the job and tuner knobs, refused as a string.
TYPED_FIELDS = FIELDS + [
    (serve_job, "arrival_time"),
    (serve_job, "deadline"),
    (slo_target, "max_mean_jct"),
    (slo_target, "max_dollars"),
]


@pytest.mark.parametrize(
    "build, name", TYPED_FIELDS, ids=[f"{b.__name__}.{n}" for b, n in TYPED_FIELDS]
)
def test_a_field_that_is_no_number_is_refused_by_name(build, name):
    # math.isfinite("1") raises a bare TypeError; the boundary turns it
    # into the package's typed refusal, naming the field.
    with pytest.raises(ScheduleError, match=f"^{name} must be a real number"):
        build(**{name: "1"})


@pytest.mark.parametrize(
    "name, value",
    [
        ("gateway_rate", 0.0),
        ("gateway_burst", 0.5),
        ("gateway_queue_bound", "3"),
        ("gateway_queue_bound", 2.5),
        ("gateway_fairness", 1.5),
        ("gateway_hold", -1.0),
    ],
)
def test_a_bad_gateway_knob_is_refused_under_its_own_name(name, value):
    # ServeConfig builds GatewayLimits from these knobs; a refusal must
    # name the field the caller set, not the GatewayLimits field.
    with pytest.raises(ScheduleError, match=f"^{name} must "):
        ServeConfig(**{name: value})


@pytest.mark.parametrize(
    "build, name",
    [
        (GatewayLimits, "rate"),
        (GatewayLimits, "fairness_share"),
        (serve_config, "migration_time_threshold"),
        (serve_config, "autoscale_budget"),
        (serve_config, "gateway_rate"),
        (serve_config, "gateway_fairness"),
        (replica_set_config, "migration_threshold"),
        (replica_set_config, "migration_time_threshold"),
    ],
)
def test_none_still_means_off(build, name):
    build(**{name: None})



def scheduler_config(**overrides):
    return SchedulerConfig(**{"capacity": 8192, **overrides})


def orchestrator_config(**overrides):
    return OrchestratorConfig(scheduler=SCHEDULER, **overrides)


#: Integer knobs: a float passes their range checks (``2.5 >= 1``) and
#: a string or None fails them with a bare TypeError, so each is refused
#: up front, by name.
INT_FIELDS = [
    (scheduler_config, "capacity"),
    (scheduler_config, "padding_multiple"),
    (scheduler_config, "num_stages"),
    (scheduler_config, "max_workers"),
    (scheduler_config, "group_size"),
    (ServeConfig, "num_replicas"),
    (ServeConfig, "window_batches"),
    (ServeConfig, "slots"),
    (GatewayLimits, "queue_bound"),
    (orchestrator_config, "window_batches"),
    (AdaptiveWindowConfig, "min_batches"),
    (AdaptiveWindowConfig, "max_batches"),
]


@pytest.mark.parametrize("value", ["2", 2.5], ids=["str", "float"])
@pytest.mark.parametrize(
    "build, name", INT_FIELDS, ids=[f"{b.__name__}.{n}" for b, n in INT_FIELDS]
)
def test_an_integer_knob_refuses_a_non_integer_by_name(build, name, value):
    with pytest.raises(ScheduleError, match=f"^{name} must be an integer"):
        build(**{name: value})


@pytest.mark.parametrize("name", ["num_replicas", "window_batches", "slots"])
def test_a_required_integer_knob_refuses_none(name):
    with pytest.raises(ScheduleError, match=f"^{name} must be an integer"):
        ServeConfig(**{name: None})


def test_integer_knobs_take_what_operator_index_takes():
    config = scheduler_config(capacity=np.int64(8192), num_stages=np.int32(2))
    assert config.num_stages == 2
    assert ServeConfig(slots=np.int64(3)).slots == 3
    assert scheduler_config(group_size=None).group_size is None


def test_group_size_must_be_positive():
    with pytest.raises(ScheduleError, match="^group_size must be at least 1"):
        scheduler_config(group_size=0)


@pytest.mark.parametrize(
    "name, value",
    [("global_batch_size", "4"), ("global_batch_size", 2.5), ("batch_offset", 1.0)],
)
def test_adapter_job_refuses_a_non_integer_by_name(name, value):
    kwargs = {"global_batch_size": 4, **{name: value}}
    with pytest.raises(ScheduleError, match=f"^{name} must be an integer"):
        AdapterJob(0, JOB.dataset, **kwargs)


def test_adapter_job_refuses_a_missing_dataset():
    with pytest.raises(ScheduleError, match="^dataset must be a FinetuneDataset"):
        AdapterJob(0, None, 4)


def test_adapter_job_takes_a_numpy_batch_size():
    assert AdapterJob(0, JOB.dataset, np.int64(2)).num_global_batches() == 1


@pytest.mark.parametrize("value", ["hi", 1.5, None], ids=["str", "float", "none"])
def test_serve_job_refuses_a_non_integer_priority_by_name(value):
    with pytest.raises(ScheduleError, match="^priority must be an integer"):
        serve_job(priority=value)


def test_serve_job_takes_a_numpy_priority():
    assert serve_job(priority=np.int64(2)).priority == 2
