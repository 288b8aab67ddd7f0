"""Property tests for the equivalence collapse: it must never cost us a front.

:func:`~repro.tune.pruner.canonical` collapses are *exact*: on small
randomized traces a config and its representative replay to identical
objective points.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import CostEstimator, ServeConfig, ServeJob
from repro.tune import canonical, evaluate

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
DATASETS = ("xsum", "cnn_dailymail", "wikisum", "mixed")


@st.composite
def traces(draw):
    """A few jobs with random sizes, spacings, and deadline tightness."""
    seed = draw(st.integers(min_value=0, max_value=9))
    num_jobs = draw(st.integers(min_value=2, max_value=4))
    spacing = draw(st.sampled_from([0.0, 0.2, 1.0]))
    jobs = []
    for adapter in range(num_jobs):
        samples = draw(st.sampled_from([4, 8]))
        job = AdapterJob(
            adapter,
            synthetic_dataset(adapter, DATASETS[adapter % 4], samples, seed=seed),
            global_batch_size=4,
        )
        tightness = draw(st.sampled_from([None, 0.2, 1.0, 5.0]))
        deadline = None
        if tightness is not None:
            # Anchor tightness to the job's own priced solo time so the
            # draw spans doomed, marginal, and comfortable deadlines.
            pricer = CostEstimator.for_scheduler(COST, SCHED)
            deadline = adapter * spacing + tightness * pricer.job_seconds(job)
        jobs.append(
            ServeJob(job, arrival_time=adapter * spacing, deadline=deadline)
        )
    return jobs


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    trace=traces(),
    config=st.builds(
        ServeConfig,
        num_replicas=st.sampled_from([1, 2]),
        routing=st.sampled_from(["round_robin", "cost_aware"]),
        ordering=st.sampled_from(["fcfs", "srpt"]),
        preemptive=st.booleans(),
        deadline_gate=st.booleans(),
    ),
)
def test_canonical_collapse_is_behaviorally_exact(trace, config):
    has_deadlines = any(j.deadline is not None for j in trace)
    representative = canonical(config, has_deadlines)
    original, _ = evaluate(config, trace, cost=COST, scheduler=SCHED)
    collapsed, _ = evaluate(representative, trace, cost=COST, scheduler=SCHED)
    assert original == collapsed


def test_gate_collapses_only_on_deadline_free_traces():
    config = ServeConfig(deadline_gate=True, gate_slack=1.5,
                         queueing_aware=True)
    free = canonical(config, has_deadlines=False)
    assert (free.deadline_gate, free.gate_slack, free.queueing_aware) == (
        False, 1.0, False
    )
    assert canonical(config, has_deadlines=True) == config


def test_single_replica_collapses_placement_knobs():
    config = ServeConfig(num_replicas=1, routing="cost_aware",
                         migration_time_threshold=0.5,
                         drain_then_migrate=True)
    representative = canonical(config, True)
    assert representative.routing == "least_loaded"
    assert representative.migration_time_threshold is None
    assert not representative.drain_then_migrate
    # Two replicas keep every placement knob.
    assert canonical(replace(config, num_replicas=2), True) == replace(
        config, num_replicas=2
    )


def test_preemption_collapses_only_under_fcfs():
    assert not canonical(ServeConfig(ordering="fcfs", preemptive=True),
                         True).preemptive
    assert canonical(ServeConfig(ordering="srpt", preemptive=True),
                     True).preemptive


def test_packing_collapses_only_on_singleton_traces():
    config = ServeConfig(packing="knapsack")
    assert canonical(config, False, multi_tenant=False).packing == "arrival"
    assert canonical(config, False, multi_tenant=True).packing == "knapsack"
    # Default keeps the axis (the conservative choice).
    assert canonical(config, False).packing == "knapsack"


@settings(max_examples=4, deadline=None, derandomize=True)
@given(trace=traces())
def test_single_tenant_packing_collapse_is_behaviorally_exact(trace):
    # Exactness of the singleton-trace identity: a knapsack config and
    # its arrival-order representative replay to identical points.
    solo = [trace[0]]
    config = ServeConfig(packing="knapsack", routing="packing_affinity")
    representative = canonical(config, False, multi_tenant=False)
    assert representative.packing == "arrival"
    original, _ = evaluate(config, solo, cost=COST, scheduler=SCHED)
    collapsed, _ = evaluate(representative, solo, cost=COST, scheduler=SCHED)
    assert original == collapsed

