"""Tests for the online orchestrator's serving loop."""

from dataclasses import replace

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import (
    AdapterJob,
    MultiLoRAScheduler,
    Schedule,
    SchedulerConfig,
    find_violations,
)
from repro.serve import (
    OnlineOrchestrator,
    OrchestratorConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)
from tests.helpers import batch_order

DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


def make_jobs(count, samples=16, gbs=8, seed=3):
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], samples, seed=seed),
                   gbs)
        for a in range(count)
    ]


def make_orchestrator(num_stages=2, window=1, slots=None, **scheduler_overrides):
    settings = dict(capacity=8192, num_stages=num_stages, use_milp=False)
    settings.update(scheduler_overrides)
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(**settings),
        window_batches=window,
        admission=SlotAdmission(slots) if slots else None,
    )
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    executor = StreamingSimExecutor(cost, num_stages)
    return OnlineOrchestrator(executor, config)


class TestServingLoop:
    def test_all_jobs_complete_with_zero_violations(self):
        jobs = make_jobs(4)
        workload = [
            ServeJob(job=job, arrival_time=0.25 * i)
            for i, job in enumerate(jobs)
        ]
        orchestrator = make_orchestrator(num_stages=2, window=1)
        result = orchestrator.run(workload)
        assert result.violations == 0
        assert find_violations(orchestrator.stream, 2) == []
        for job in jobs:
            record = result.records[job.adapter_id]
            assert record.finish_time is not None
            assert record.completion_time > 0
            assert record.num_batches == job.num_global_batches()

    def test_every_sample_scheduled_exactly_once_under_churn(self):
        jobs = make_jobs(5, samples=20, gbs=5)
        workload = [
            ServeJob(job=job, arrival_time=float(i))
            for i, job in enumerate(jobs)
        ]
        orchestrator = make_orchestrator(num_stages=4, window=2, slots=3)
        orchestrator.run(workload)
        for job in jobs:
            seen = sorted(
                a.sample.index
                for mb in orchestrator.stream
                for a in mb.assignments
                if a.adapter_id == job.adapter_id
            )
            assert seen == list(range(len(job.dataset)))

    def test_batch_order_preserved_per_job(self):
        jobs = make_jobs(3, samples=12, gbs=4)
        workload = [
            ServeJob(job=job, arrival_time=0.5 * i)
            for i, job in enumerate(jobs)
        ]
        orchestrator = make_orchestrator(num_stages=2, window=1)
        orchestrator.run(workload)
        for job in jobs:
            batches = batch_order(orchestrator.stream, job.adapter_id)
            assert batches == sorted(batches)
            assert batches[-1] == job.num_global_batches() - 1

    def test_slot_budget_respected(self):
        jobs = make_jobs(6, samples=8, gbs=4)
        workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
        orchestrator = make_orchestrator(num_stages=2, window=1, slots=2)

        max_active = 0
        original = orchestrator._plan_wave

        def tracking_plan():
            nonlocal max_active
            max_active = max(max_active, len(orchestrator._active))
            return original()

        orchestrator._plan_wave = tracking_plan
        result = orchestrator.run(workload)
        assert max_active <= 2
        assert all(r.finish_time is not None for r in result.records.values())
        # Later jobs queued for a slot.
        assert result.mean_queueing_delay() > 0

    def test_queueing_metrics_monotone_with_fewer_slots(self):
        jobs = make_jobs(6, samples=8, gbs=4)
        workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
        tight = make_orchestrator(num_stages=2, window=1, slots=1).run(workload)
        loose = make_orchestrator(num_stages=2, window=1, slots=6).run(workload)
        assert tight.mean_queueing_delay() >= loose.mean_queueing_delay()
        assert loose.mean_queueing_delay() == 0.0

    def test_idle_gap_fast_forwards_clock(self):
        jobs = make_jobs(2, samples=8, gbs=4)
        workload = [
            ServeJob(job=jobs[0], arrival_time=0.0),
            ServeJob(job=jobs[1], arrival_time=1000.0),
        ]
        result = make_orchestrator(num_stages=2, window=2).run(workload)
        assert result.makespan >= 1000.0
        record = result.records[1]
        assert record.admit_time == pytest.approx(1000.0)

    def test_oracle_mode_matches_offline_schedule(self):
        # All jobs at t=0 with an unbounded window is the offline oracle:
        # one wave, and the stream equals the offline scheduler's output.
        jobs = make_jobs(4)
        workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
        orchestrator = make_orchestrator(num_stages=2, window=None)
        result = orchestrator.run(workload)
        offline = MultiLoRAScheduler(
            jobs, SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
        ).schedule()
        assert result.replans == 1
        key = lambda mb: sorted(
            (a.adapter_id, a.sample.index, a.global_batch)
            for a in mb.assignments
        )
        assert [key(mb) for mb in orchestrator.stream] == [
            key(mb) for mb in offline.microbatches
        ]

    def test_run_is_single_shot(self):
        jobs = make_jobs(2, samples=8, gbs=4)
        workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
        orchestrator = make_orchestrator(num_stages=2, window=1)
        orchestrator.run(workload)
        with pytest.raises(ScheduleError, match="single-shot"):
            orchestrator.run(workload)

    def test_duplicate_adapter_ids_rejected(self):
        job = make_jobs(1)[0]
        workload = [
            ServeJob(job=job, arrival_time=0.0),
            ServeJob(job=job, arrival_time=1.0),
        ]
        with pytest.raises(ScheduleError, match="duplicate"):
            make_orchestrator().run(workload)

    @pytest.mark.parametrize(
        "bad",
        [lambda job: [1, 2], lambda job: [job, job], lambda job: 7],
        ids=["not-jobs", "duplicates", "no-sequence"],
    )
    def test_bad_workload_refused_before_the_session_is_consumed(self, bad):
        job = ServeJob(job=make_jobs(1, samples=4, gbs=2)[0], arrival_time=0.0)
        orchestrator = make_orchestrator()
        with pytest.raises(ScheduleError):
            orchestrator.start(bad(job))
        # The refusal left the orchestrator unstarted: a valid start runs.
        orchestrator.start([job])
        while orchestrator.step():
            pass
        assert orchestrator.finish().records[0].finish_time is not None

    def test_stream_schedule_round_trips_through_json(self):
        jobs = make_jobs(3, samples=8, gbs=4)
        workload = [
            ServeJob(job=job, arrival_time=0.1 * i)
            for i, job in enumerate(jobs)
        ]
        orchestrator = make_orchestrator(num_stages=2, window=1)
        orchestrator.run(workload)
        schedule = Schedule(
            microbatches=list(orchestrator.stream),
            num_stages=orchestrator.config.scheduler.num_stages,
        )
        rebuilt = Schedule.from_dict(schedule.to_dict())
        assert len(rebuilt) == len(schedule)
        assert [mb.plan_id for mb in rebuilt.microbatches] == [
            mb.plan_id for mb in schedule.microbatches
        ]
        assert find_violations(rebuilt.microbatches, 2) == []

    def test_inject_without_free_slot_rejected(self):
        # The admission budget holds across migration: a state-carrying
        # ticket cannot land on a replica whose slots are all taken.
        jobs = make_jobs(2, samples=8, gbs=4)
        source = make_orchestrator(num_stages=1, window=1, slots=1)
        source.start([ServeJob(job=jobs[0], arrival_time=0.0)])
        source.step()  # admit + first wave: job 0 active, at a boundary
        ticket = source.eject_job(0)
        assert ticket.payload is not None
        target = make_orchestrator(num_stages=1, window=1, slots=1)
        target.start([ServeJob(job=jobs[1], arrival_time=0.0)])
        target.step()  # job 1 occupies the only slot
        with pytest.raises(ScheduleError, match="no free adapter slot"):
            target.inject_job(ticket)

    @pytest.mark.parametrize(
        ("forge", "match"),
        [
            (lambda active, pending: replace(active, completed=-1), "outside"),
            (lambda active, pending: replace(active, completed=99), "outside"),
            (
                lambda active, pending: replace(pending, completed=3),
                "without executor state",
            ),
            (
                lambda active, pending: replace(active, record=pending.record),
                "carries the record",
            ),
        ],
        ids=["negative-completed", "completed-past-end", "pending-with-steps",
             "foreign-record"],
    )
    def test_malformed_ticket_refused_before_any_state_change(self, forge, match):
        jobs = make_jobs(3, samples=24, gbs=4)  # 6 global batches each
        source = make_orchestrator(num_stages=1, window=1)
        source.start([ServeJob(job=jobs[0], arrival_time=0.0),
                      ServeJob(job=jobs[1], arrival_time=50.0)])
        source.step()  # job 0 active at a boundary; job 1 not yet due
        active, pending = source.eject_job(0), source.eject_job(1)
        assert active.payload is not None and pending.payload is None
        target = make_orchestrator(num_stages=1, window=1)
        target.start([ServeJob(job=jobs[2], arrival_time=0.0)])
        target.step()
        before = (target.num_active, target.num_pending,
                  {aid: replace(r) for aid, r in target._records.items()})
        with pytest.raises(ScheduleError, match=match):
            target.inject_job(forge(active, pending))
        assert (target.num_active, target.num_pending, target._records) == before

    def test_plan_ids_trace_replanning_waves(self):
        jobs = make_jobs(3, samples=12, gbs=4)
        workload = [
            ServeJob(job=job, arrival_time=0.2 * i)
            for i, job in enumerate(jobs)
        ]
        orchestrator = make_orchestrator(num_stages=2, window=1)
        result = orchestrator.run(workload)
        plan_ids = [mb.plan_id for mb in orchestrator.stream]
        assert plan_ids == sorted(plan_ids)
        assert len(set(plan_ids)) == result.replans


class TestWindowSlicing:
    """Windows and packing steps slice a job's samples by position."""

    # 7 samples at gbs 3: global batches [0, 1, 2], [3, 4, 5] and [6].
    JOB = AdapterJob(0, synthetic_dataset(0, "xsum", 7, seed=5), 3)

    def test_uneven_job_trains_each_batch_once_across_a_migration(self):
        source = make_orchestrator(num_stages=2, window=2)
        source.start([ServeJob(job=self.JOB, arrival_time=0.0)])
        source.step()  # one wave: global batches 0 and 1
        source.flush()
        ticket = source.eject_job(0)
        assert ticket.completed == 2
        target = make_orchestrator(num_stages=2, window=2)
        target.start([])
        target.inject_job(ticket)
        while target.step():
            pass
        assert target.finish().records[0].finish_time is not None
        executed = [
            (a.sample.index, a.global_batch)
            for mb in source.stream + target.stream
            for a in mb.assignments
        ]
        expected = [
            (sample.index, b)
            for b, batch in enumerate(self.JOB.dataset.global_batches(3))
            for sample in batch
        ]
        assert sorted(executed) == expected
        # Batches run in training order; packing reorders only within one.
        labels = [b for _, b in executed]
        assert labels == sorted(labels)

    def test_export_after_one_step_holds_the_batches_left(self):
        orchestrator = make_orchestrator(num_stages=1, window=1)
        orchestrator.start([ServeJob(job=self.JOB, arrival_time=0.0)])
        orchestrator.step()
        orchestrator.flush()
        payload = orchestrator.executor.export_job(0)
        assert payload == {"remaining": {1: 3, 2: 1}}


class TestAdaptiveWindow:
    @staticmethod
    def run_adaptive(workload, adaptive, slots=None, window=1):
        from repro.serve import CostEstimator

        scheduler = SchedulerConfig(capacity=8192, num_stages=2,
                                    use_milp=False)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        config = OrchestratorConfig(
            scheduler=scheduler,
            window_batches=window,
            admission=SlotAdmission(slots) if slots else None,
            estimator=CostEstimator.for_scheduler(cost, scheduler),
            adaptive_window=adaptive,
        )
        orchestrator = OnlineOrchestrator(StreamingSimExecutor(cost, 2),
                                          config)
        return orchestrator, orchestrator.run(workload)

    def test_window_grows_while_tenant_set_is_stable(self):
        from repro.serve import AdaptiveWindowConfig

        # One long job, no churn after admission: the window should walk
        # up to the ceiling.
        workload = [ServeJob(job=make_jobs(1, samples=96)[0],
                             arrival_time=0.0)]
        orchestrator, result = self.run_adaptive(
            workload, AdaptiveWindowConfig(min_batches=1, max_batches=4)
        )
        assert result.violations == 0
        assert orchestrator._window == 4
        # Fewer replans than the static window=1 run would need (12
        # batches, one per wave).
        assert result.replans < 12

    def test_window_shrinks_under_churn(self):
        from repro.serve import AdaptiveWindowConfig

        # A steady drip of short tenants: every wave sees churn, so the
        # window must stay at the floor.
        jobs = make_jobs(6, samples=8)
        workload = [ServeJob(job=job, arrival_time=0.3 * a)
                    for a, job in enumerate(jobs)]
        orchestrator, result = self.run_adaptive(
            workload, AdaptiveWindowConfig(min_batches=1, max_batches=8),
            slots=2,
        )
        assert result.violations == 0
        assert orchestrator._window <= 2

    def test_adaptive_window_requires_finite_start(self):
        from repro.serve import AdaptiveWindowConfig

        with pytest.raises(ScheduleError, match="window_batches"):
            OrchestratorConfig(
                scheduler=SchedulerConfig(capacity=8192, use_milp=False),
                window_batches=None,
                adaptive_window=AdaptiveWindowConfig(),
            )

    def test_degenerate_bounds_rejected(self):
        from repro.serve import AdaptiveWindowConfig

        with pytest.raises(ScheduleError):
            AdaptiveWindowConfig(min_batches=0)
        with pytest.raises(ScheduleError):
            AdaptiveWindowConfig(min_batches=4, max_batches=2)


class TestDeadlineShedding:
    @staticmethod
    def serve_gated(workload, slack=1.0, slots=2, ordering=None):
        from repro.serve import CostEstimator, DeadlineFeasibilityAdmission
        from repro.serve.ordering import DeadlineOrdering

        scheduler = SchedulerConfig(capacity=8192, num_stages=2,
                                    use_milp=False)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        config = OrchestratorConfig(
            scheduler=scheduler,
            window_batches=1,
            admission=DeadlineFeasibilityAdmission(SlotAdmission(slots),
                                                   slack=slack),
            ordering=ordering or DeadlineOrdering(),
            estimator=CostEstimator.for_scheduler(cost, scheduler),
        )
        orchestrator = OnlineOrchestrator(StreamingSimExecutor(cost, 2),
                                          config)
        return orchestrator.run(workload)

    def test_doomed_arrival_is_rejected_terminally(self):
        from repro.serve import JobOutcome

        jobs = make_jobs(2, samples=16)
        workload = [
            # An impossible deadline: rejected on arrival.
            ServeJob(job=jobs[0], arrival_time=0.0, deadline=1e-9),
            # A generous one: served normally.
            ServeJob(job=jobs[1], arrival_time=0.0, deadline=1e9),
        ]
        result = self.serve_gated(workload)
        assert result.rejected == 1
        rejected = result.records[0]
        assert rejected.outcome is JobOutcome.REJECTED
        assert rejected.rejected_time == 0.0
        assert rejected.admit_time is None and rejected.finish_time is None
        served = result.records[1]
        assert served.outcome is JobOutcome.FINISHED
        # The shed job counts in the strict miss rate but not the
        # served-only one.
        assert result.deadline_miss_rate() == 0.5
        assert result.served_deadline_miss_rate() == 0.0
        assert result.rejections() == 1

    def test_gate_requires_estimator(self):
        from repro.serve import DeadlineFeasibilityAdmission

        with pytest.raises(ScheduleError, match="estimator"):
            OrchestratorConfig(
                scheduler=SchedulerConfig(capacity=8192, use_milp=False),
                admission=DeadlineFeasibilityAdmission(SlotAdmission(1)),
            )

    def test_job_turning_infeasible_while_queueing_is_shed(self):
        from repro.serve.ordering import FCFSOrdering

        jobs = make_jobs(3, samples=24)
        workload = [
            # Fills the single slot for a while (~0.4s of service).
            ServeJob(job=jobs[0], arrival_time=0.0),
            # Feasible at arrival (own service ~0.55s < 0.7s budget) but
            # the deadline decays while it queues behind job 0 under
            # FCFS -- the gate re-prices it every admission pass and
            # sheds it mid-queue.
            ServeJob(job=jobs[1], arrival_time=0.0, deadline=0.7),
            ServeJob(job=jobs[2], arrival_time=0.0),
        ]
        result = self.serve_gated(workload, slots=1, ordering=FCFSOrdering())
        record = result.records[1]
        assert record.rejected_time is not None
        assert record.rejected_time > 0.0  # shed in queue, not at arrival
        assert record.finish_time is None
        # Everyone else completes.
        assert result.records[0].finish_time is not None
        assert result.records[2].finish_time is not None
