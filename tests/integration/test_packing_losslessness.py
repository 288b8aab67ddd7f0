"""Property tests: knapsack packing changes nothing but the schedule.

Length-aware streaming packing (``packing="knapsack"``) reorders wave
assembly -- sticky token-mass knapsack groups, fragmentation-biased
admission ties, merge-discounted wave pricing -- but every one of those
levers must stay *schedule-shaping only*.  Hypothesis drives the same
disturbance machinery as ``test_property_losslessness.py`` (offers,
preemption bounces, cross-pipeline migrations, pipelines joining and
retiring, spot reclamations) with knapsack packing switched on and
asserts the paper's guarantee still holds bit-for-bit: every surviving
tenant's final adapter weights are **identical (atol=0)** to sequential
solo training, and a replay reproduces identical records.

A second family pins loop independence: a knapsack-packed fleet with
sticky groups, the estimator-biased admission hook, and estimator-priced
packing-affinity routing must replay **byte-identically** on the fleet
loop and on the lockstep reference loop
(:func:`tests.lockstep_reference.run_lockstep`), on repeated runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import train_job_sequentially
from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models import TINY, TinyLoRATransformer
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.runtime import MultiLoRAEngine
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CostEstimator,
    FCFSOrdering,
    NumericExecutor,
    OnlineOrchestrator,
    OrchestratorConfig,
    PackingAffinityRouting,
    PriorityOrdering,
    ReplicaSet,
    ReplicaSetConfig,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)
from tests.helpers import fingerprint
from tests.integration.test_property_losslessness import MODEL_SEED
from tests.lockstep_reference import run_lockstep

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


def make_knapsack_orchestrator(model):
    engine = MultiLoRAEngine(model, exact_accumulation=True)
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=64, padding_multiple=1,
                                  num_stages=2, use_milp=False,
                                  group_size=2),
        window_batches=1,
        admission=SlotAdmission(2),
        ordering=PriorityOrdering(),
        mid_wave_admission=True,
        packing="knapsack",
    )
    return OnlineOrchestrator(NumericExecutor(engine), config)


def run_scenario(specs, actions, hold):
    """``test_property_losslessness.run_scenario`` with knapsack packing.

    The disturbance schedule is identical (offers at start, then a queue
    of migrate/bounce/join/retire/reclaim actions); only the
    orchestrator factory differs, so any divergence is the packing
    scheme's fault.
    """
    import tests.integration.test_property_losslessness as spec_module

    original = spec_module.make_orchestrator
    spec_module.make_orchestrator = make_knapsack_orchestrator
    try:
        return spec_module.run_scenario(specs, actions, hold)
    finally:
        spec_module.make_orchestrator = original


job_spec = st.tuples(
    st.integers(min_value=4, max_value=8),   # samples
    st.sampled_from([2, 3]),                 # rank
    st.sampled_from([0.0, 1.0, 2.0]),        # arrival
    st.integers(min_value=0, max_value=1),   # priority
)

action_spec = st.tuples(
    st.integers(min_value=0, max_value=3),   # loop iterations to wait
    st.integers(min_value=0, max_value=2),   # job index (mod num_jobs)
    st.sampled_from(
        ["migrate", "bounce", "join", "retire", "reclaim"]
    ),
)


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=2, max_size=3),
    actions=st.lists(action_spec, min_size=0, max_size=6),
    hold=st.integers(min_value=1, max_value=4),
)
def test_knapsack_interleavings_preserve_losslessness(specs, actions, hold):
    workload, models, records, owner = run_scenario(specs, actions, hold)

    # Determinism first: replaying the interleaving reproduces the
    # records exactly, sticky-group caches and all.
    _, _, replay_records, _ = run_scenario(specs, actions, hold)
    assert fingerprint(replay_records) == fingerprint(records)

    for serve_job in workload:
        record = records[serve_job.adapter_id]
        assert record.finish_time is not None
        reference = TinyLoRATransformer(TINY, np.random.default_rng(MODEL_SEED))
        train_job_sequentially(reference, serve_job.numeric)
        final_model = models[owner[serve_job.adapter_id]]
        online = final_model.adapter_state(serve_job.adapter_id)
        solo = reference.adapter_state(serve_job.adapter_id)
        for key in online:
            np.testing.assert_array_equal(online[key].a, solo[key].a)
            np.testing.assert_array_equal(online[key].b, solo[key].b)


def make_jobs(specs):
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], samples, seed=3),
                   gbs)
        for a, (samples, gbs) in enumerate(specs)
    ]


def build_knapsack_set(num_replicas, specs_seed=11):
    """A fresh knapsack-packed fleet exercising every new lever.

    Estimator on (so the admission interleave hook resolves and the
    merge discount prices waves), estimator-priced packing-affinity
    routing (so replica choice consults live length profiles), sticky
    groups via ``packing="knapsack"``.
    """
    scheduler = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
    estimator = CostEstimator.for_scheduler(COST, scheduler)
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=scheduler,
            window_batches=1,
            admission=SlotAdmission(2),
            ordering=FCFSOrdering(),
            estimator=estimator,
            packing="knapsack",
        ),
        routing=PackingAffinityRouting(estimator=estimator),
    )
    executors = [StreamingSimExecutor(COST, 2) for _ in range(num_replicas)]
    return ReplicaSet(executors, config)


job_specs = st.lists(
    st.tuples(
        st.integers(min_value=4, max_value=16),  # samples
        st.sampled_from([2, 4]),                 # global batch size
    ),
    min_size=3,
    max_size=7,
)


@pytest.mark.slow
class TestKnapsackKernelEquivalence:
    @given(specs=job_specs,
           num_replicas=st.integers(min_value=2, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_knapsack_traces_match_across_kernels(self, specs, num_replicas):
        prints = []
        for serve in (ReplicaSet.run, run_lockstep):
            replica_set = build_knapsack_set(num_replicas)
            workload = poisson_workload(make_jobs(specs), rate=1.0, rng=11)
            prints.append(fingerprint(serve(replica_set, workload), replica_set))
        assert prints[0] == prints[1]

    def test_knapsack_reruns_are_byte_identical(self):
        reprs = []
        for _ in range(2):
            replica_set = build_knapsack_set(num_replicas=3)
            workload = poisson_workload(
                make_jobs([(8, 2), (12, 4), (6, 2), (10, 2)]),
                rate=1.0, rng=7,
            )
            result = replica_set.run(workload)
            reprs.append(repr(fingerprint(result, replica_set))
                         + repr(sorted(result.records.items())))
        assert reprs[0] == reprs[1]

    def test_knapsack_packs_report_stream_counters(self):
        replica_set = build_knapsack_set(num_replicas=2)
        workload = poisson_workload(
            make_jobs([(8, 2), (12, 4), (6, 2)]), rate=1.0, rng=5
        )
        result = replica_set.run(workload)
        assert result.total_padded_tokens >= result.total_tokens > 0
        assert 0.0 <= result.padding_waste() < 1.0
        assert 0.0 <= result.bubble_rate() < 1.0
        assert 0.0 < result.pack_efficiency() <= 1.0
