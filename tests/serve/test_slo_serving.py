"""SLO-aware serving: ordering, preemption, and mid-wave admission."""

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig, find_violations
from repro.serve import (
    DeadlineOrdering,
    FCFSOrdering,
    OnlineOrchestrator,
    OrchestratorConfig,
    OrchestratorResult,
    PriorityOrdering,
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
    StreamingSimExecutor,
)
from tests.helpers import batch_order

DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]
NUM_STAGES = 4


def make_orchestrator(ordering=None, slots=2, window=2, mid_wave=False,
                      num_stages=NUM_STAGES):
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=8192, num_stages=num_stages,
                                  use_milp=False),
        window_batches=window,
        admission=SlotAdmission(slots) if slots else None,
        ordering=ordering,
        mid_wave_admission=mid_wave,
    )
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    return OnlineOrchestrator(StreamingSimExecutor(cost, num_stages), config)


def make_job(aid, samples, arrival, gbs=8, priority=0, deadline=None, seed=5):
    dataset = synthetic_dataset(aid, DATASETS[aid % 4], samples, seed=seed)
    return ServeJob(job=AdapterJob(aid, dataset, gbs), arrival_time=arrival,
                    priority=priority, deadline=deadline)


def heavy_tailed_workload(**overrides):
    """One huge, two medium, five short tenants; shorts arrive last."""
    sizes = [96, 32, 32, 8, 8, 8, 8, 8]
    arrivals = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14]
    priority = overrides.get("priority", {})
    deadline = overrides.get("deadline", {})
    return [
        make_job(a, n, t, priority=priority.get(a, 0),
                 deadline=deadline.get(a))
        for a, (n, t) in enumerate(zip(sizes, arrivals))
    ]


def assert_complete_and_safe(orchestrator, result, workload):
    assert result.violations == 0
    assert find_violations(orchestrator.stream, NUM_STAGES) == []
    for job in workload:
        record = result.records[job.adapter_id]
        assert record.finish_time is not None
    # Every sample scheduled exactly once, in order, despite churn.
    for job in workload:
        seen = sorted(
            a.sample.index
            for mb in orchestrator.stream
            for a in mb.assignments
            if a.adapter_id == job.adapter_id
        )
        assert seen == list(range(len(job.job.dataset)))


class TestOrderingPolicies:
    def test_fcfs_default_unchanged(self):
        # ordering=None must reproduce the original FCFS serving run
        # microbatch for microbatch.
        workload = heavy_tailed_workload()
        default = make_orchestrator(ordering=None)
        explicit = make_orchestrator(ordering=FCFSOrdering())
        result_default = default.run(heavy_tailed_workload())
        result_explicit = explicit.run(workload)
        assert result_default.makespan == result_explicit.makespan
        assert len(default.stream) == len(explicit.stream)
        assert result_default.preemptions == 0
        assert result_explicit.preemptions == 0

    def test_srpt_beats_fcfs_on_mean_jct(self):
        fcfs = make_orchestrator(ordering=FCFSOrdering())
        srpt = make_orchestrator(ordering=SRPTOrdering())
        fcfs_result = fcfs.run(heavy_tailed_workload())
        srpt_result = srpt.run(heavy_tailed_workload())
        assert_complete_and_safe(srpt, srpt_result, heavy_tailed_workload())
        assert (srpt_result.mean_completion_time()
                < fcfs_result.mean_completion_time())

    def test_srpt_admits_shortest_waiting_job_first(self):
        # One slot: the long job takes it; at the boundary the shortest
        # of the waiting jobs must be admitted next, not the earliest.
        workload = [
            make_job(0, 16, 0.0, gbs=8),   # long, holds the slot
            make_job(1, 16, 0.01, gbs=8),  # earlier but longer
            make_job(2, 8, 0.02, gbs=8),   # later but shorter
        ]
        orchestrator = make_orchestrator(ordering=SRPTOrdering(), slots=1,
                                         window=None)
        result = orchestrator.run(workload)
        assert (result.records[2].admit_time
                < result.records[1].admit_time)

    def test_nonpreemptive_policy_never_preempts(self):
        orchestrator = make_orchestrator(ordering=SRPTOrdering())
        result = orchestrator.run(heavy_tailed_workload())
        assert result.preemptions == 0
        assert all(r.preemptions == 0 for r in result.records.values())


class TestPreemption:
    def test_high_class_arrival_evicts_lowest_class(self):
        workload = heavy_tailed_workload(
            priority={3: 1, 4: 1, 5: 1, 6: 1, 7: 1}
        )
        orchestrator = make_orchestrator(ordering=PriorityOrdering())
        result = orchestrator.run(workload)
        assert_complete_and_safe(orchestrator, result, workload)
        assert result.preemptions >= 1
        # Only best-effort jobs were evicted.
        for record in result.records.values():
            if record.priority > 0:
                assert record.preemptions == 0

    def test_preemptive_srpt_cuts_mean_jct_further(self):
        srpt = make_orchestrator(ordering=SRPTOrdering())
        preemptive = make_orchestrator(ordering=SRPTOrdering(preemptive=True))
        srpt_result = srpt.run(heavy_tailed_workload())
        preemptive_result = preemptive.run(heavy_tailed_workload())
        assert preemptive_result.preemptions >= 1
        assert (preemptive_result.mean_completion_time()
                <= srpt_result.mean_completion_time())

    def test_preempted_job_resumes_and_finishes(self):
        workload = heavy_tailed_workload(
            priority={3: 1, 4: 2, 5: 1, 6: 1, 7: 1}
        )
        orchestrator = make_orchestrator(ordering=PriorityOrdering())
        result = orchestrator.run(workload)
        assert_complete_and_safe(orchestrator, result, workload)
        evicted = [r for r in result.records.values() if r.preemptions > 0]
        assert evicted
        for record in evicted:
            assert record.finish_time is not None

    def test_equal_keys_never_preempt(self):
        # All jobs in the same class: a preemptive priority policy must
        # not thrash slots between equals.
        orchestrator = make_orchestrator(ordering=PriorityOrdering())
        result = orchestrator.run(heavy_tailed_workload())
        assert result.preemptions == 0

    def test_parked_job_can_migrate(self):
        workload = [
            make_job(0, 32, 0.0, gbs=8),
            make_job(1, 8, 0.05, gbs=8, priority=1),
        ]
        source = make_orchestrator(ordering=PriorityOrdering(), slots=1)
        source.start(workload)
        while source.num_parked == 0 and source.has_work():
            source.step()
        assert source.num_parked == 1
        ticket = source.eject_job(0)
        assert ticket.payload is not None
        assert ticket.completed >= 0
        target = make_orchestrator(ordering=PriorityOrdering(), slots=1)
        target.start([])
        target.inject_job(ticket)
        while target.step():
            pass
        result = target.finish()
        assert result.records[0].finish_time is not None


class TestMidWaveAdmission:
    def test_urgent_arrival_cuts_the_wave(self):
        workload = heavy_tailed_workload(
            priority={3: 1, 4: 1, 5: 1, 6: 1, 7: 1}
        )
        patient = make_orchestrator(ordering=PriorityOrdering())
        eager = make_orchestrator(ordering=PriorityOrdering(), mid_wave=True)
        patient_result = patient.run(
            heavy_tailed_workload(priority={3: 1, 4: 1, 5: 1, 6: 1, 7: 1})
        )
        eager_result = eager.run(workload)
        assert_complete_and_safe(eager, eager_result, workload)
        assert eager_result.wave_cuts >= 1
        assert patient_result.wave_cuts == 0
        # Cutting waves buys the high class lower JCT.
        assert (eager_result.mean_completion_time(priority=1)
                <= patient_result.mean_completion_time(priority=1))

    def test_fcfs_without_flag_never_cuts(self):
        orchestrator = make_orchestrator()
        result = orchestrator.run(heavy_tailed_workload())
        assert result.wave_cuts == 0

    def test_stream_stays_lossless_under_cuts(self):
        workload = heavy_tailed_workload(
            priority={3: 1, 5: 2, 7: 3}
        )
        orchestrator = make_orchestrator(
            ordering=PriorityOrdering(), mid_wave=True, window=3
        )
        result = orchestrator.run(workload)
        assert_complete_and_safe(orchestrator, result, workload)
        # Per-job batch order is still monotone.
        for job in workload:
            batches = batch_order(orchestrator.stream, job.adapter_id)
            assert batches == sorted(batches)


class TestDeadlines:
    def test_edf_meets_more_deadlines_than_fcfs(self):
        deadlines = {3: 3.0, 4: 3.2, 5: 3.4, 6: 3.6, 7: 3.8}
        fcfs = make_orchestrator(ordering=FCFSOrdering())
        edf = make_orchestrator(ordering=DeadlineOrdering())
        fcfs_result = fcfs.run(heavy_tailed_workload(deadline=deadlines))
        edf_result = edf.run(heavy_tailed_workload(deadline=deadlines))
        assert edf_result.deadline_miss_rate() <= fcfs_result.deadline_miss_rate()

    def test_miss_rate_zero_without_deadlines(self):
        orchestrator = make_orchestrator()
        result = orchestrator.run(heavy_tailed_workload())
        assert result.deadline_miss_rate() == 0.0
        assert result.deadline_misses() == 0


class TestEmptySession:
    def test_finish_after_zero_admitted_jobs_is_empty(self):
        # Regression: finish() used to report the idle executor's
        # degenerate 100% utilization when no wave ever ran.
        orchestrator = make_orchestrator()
        orchestrator.start([])
        result = orchestrator.finish()
        assert result == OrchestratorResult()
        assert result.utilization == 0.0
        assert result.makespan == 0.0
        assert result.records == {}

    def test_run_with_empty_workload_is_empty(self):
        result = make_orchestrator().run([])
        assert result == OrchestratorResult()

    def test_unadmitted_records_survive_in_empty_result(self):
        orchestrator = make_orchestrator()
        orchestrator.start([])
        orchestrator.offer(make_job(0, 8, 5.0))
        result = orchestrator.finish()
        assert result.utilization == 0.0
        assert result.records[0].finish_time is None
