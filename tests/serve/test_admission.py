"""Tests for admission control."""

import pytest

from repro.errors import ScheduleError
from repro.gpu import H100, L40S
from repro.models.config import LLAMA3_70B, LLAMA3_8B
from repro.serve import (
    AdmissionPolicy,
    DeadlineFeasibilityAdmission,
    JobView,
    MemoryAdmission,
    SlotAdmission,
)


def gate_view(deadline=None, remaining_seconds=None):
    return JobView(
        adapter_id=0,
        arrival_time=0.0,
        priority=0,
        deadline=deadline,
        remaining_batches=4,
        admitted=False,
        remaining_seconds=remaining_seconds,
    )


class TestSlotAdmission:
    def test_fixed_budget(self):
        assert SlotAdmission(3).max_concurrent() == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ScheduleError):
            SlotAdmission(0)

    def test_satisfies_protocol(self):
        assert isinstance(SlotAdmission(1), AdmissionPolicy)


class TestMemoryAdmission:
    def test_slots_match_memory_model(self):
        policy = MemoryAdmission(LLAMA3_8B, H100, capacity=8192, num_stages=1)
        slots = policy.max_concurrent()
        assert slots >= 1
        assert policy.fits(slots)
        assert slots == 256 or not policy.fits(slots + 1)

    def test_smaller_gpu_admits_fewer(self):
        big = MemoryAdmission(LLAMA3_8B, H100, capacity=4096)
        small = MemoryAdmission(LLAMA3_8B, L40S, capacity=4096)
        assert small.max_concurrent() < big.max_concurrent()

    def test_infeasible_configuration_raises(self):
        # A 70B model on one 48GB GPU cannot host even a single adapter.
        policy = MemoryAdmission(LLAMA3_70B, L40S, capacity=8192)
        with pytest.raises(ScheduleError, match="does not fit"):
            policy.max_concurrent()

    def test_satisfies_protocol(self):
        policy = MemoryAdmission(LLAMA3_8B, H100, capacity=4096)
        assert isinstance(policy, AdmissionPolicy)


class TestDeadlineFeasibilityAdmission:
    def test_delegates_slot_budget_to_inner_policy(self):
        gate = DeadlineFeasibilityAdmission(SlotAdmission(3))
        assert gate.max_concurrent() == 3
        assert isinstance(gate, AdmissionPolicy)

    def test_infeasible_deadline_is_shed(self):
        gate = DeadlineFeasibilityAdmission(SlotAdmission(1))
        # 5 seconds of work, 2 seconds to the deadline: doomed.
        assert not gate.feasible(gate_view(deadline=2.0, remaining_seconds=5.0),
                                 now=0.0)
        # Same job, generous deadline: feasible.
        assert gate.feasible(gate_view(deadline=9.0, remaining_seconds=5.0),
                             now=0.0)

    def test_feasibility_decays_while_queueing(self):
        gate = DeadlineFeasibilityAdmission(SlotAdmission(1))
        view = gate_view(deadline=6.0, remaining_seconds=5.0)
        assert gate.feasible(view, now=1.0)
        assert not gate.feasible(view, now=1.5)

    def test_never_sheds_what_it_cannot_measure(self):
        gate = DeadlineFeasibilityAdmission(SlotAdmission(1))
        # No deadline, or no estimate: always feasible.
        assert gate.feasible(gate_view(deadline=None, remaining_seconds=99.0),
                             now=0.0)
        assert gate.feasible(gate_view(deadline=0.1, remaining_seconds=None),
                             now=0.0)

    def test_slack_sheds_earlier(self):
        lax = DeadlineFeasibilityAdmission(SlotAdmission(1), slack=1.0)
        strict = DeadlineFeasibilityAdmission(SlotAdmission(1), slack=2.0)
        view = gate_view(deadline=8.0, remaining_seconds=5.0)
        assert lax.feasible(view, now=0.0)
        assert not strict.feasible(view, now=0.0)

    def test_rejects_non_positive_slack(self):
        with pytest.raises(ScheduleError, match="slack"):
            DeadlineFeasibilityAdmission(SlotAdmission(1), slack=0.0)


class TestQueueingAwareAdmission:
    def test_backlog_ignored_by_default(self):
        gate = DeadlineFeasibilityAdmission(SlotAdmission(1))
        view = gate_view(deadline=6.0, remaining_seconds=5.0)
        # Service-only optimism: the job fits without the queue, so a
        # huge backlog changes nothing unless queueing_aware is on.
        assert gate.feasible(view, now=0.0, backlog=100.0)

    def test_backlog_charged_when_queueing_aware(self):
        gate = DeadlineFeasibilityAdmission(
            SlotAdmission(1), queueing_aware=True
        )
        view = gate_view(deadline=6.0, remaining_seconds=5.0)
        assert gate.feasible(view, now=0.0, backlog=1.0)
        assert not gate.feasible(view, now=0.0, backlog=1.5)

    def test_slack_scales_the_estimate_not_the_backlog(self):
        gate = DeadlineFeasibilityAdmission(
            SlotAdmission(1), slack=2.0, queueing_aware=True
        )
        # 2 * 2.0 estimate + 1.5 backlog = 5.5 <= 6.0: feasible; a
        # slack that also scaled the backlog (2 * 1.5) would shed it.
        assert gate.feasible(
            gate_view(deadline=6.0, remaining_seconds=2.0),
            now=0.0, backlog=1.5,
        )
        assert not gate.feasible(
            gate_view(deadline=6.0, remaining_seconds=2.3),
            now=0.0, backlog=1.5,
        )

    def test_unmeasurable_candidates_still_pass(self):
        gate = DeadlineFeasibilityAdmission(
            SlotAdmission(1), queueing_aware=True
        )
        assert gate.feasible(
            gate_view(deadline=0.1, remaining_seconds=None),
            now=0.0, backlog=50.0,
        )


class TestQueueingAwareOrchestration:
    """End-to-end: the backlog-charging gate sheds a doomed-under-load
    arrival that the service-only gate admits (and then serves late)."""

    @staticmethod
    def serve(queueing_aware):
        from repro.data import synthetic_dataset
        from repro.gpu import H100 as GPU
        from repro.models.layer_costs import LayerCostModel
        from repro.scheduler import AdapterJob, SchedulerConfig
        from repro.serve import (
            CostEstimator,
            DeadlineOrdering,
            OnlineOrchestrator,
            OrchestratorConfig,
            ServeJob,
            StreamingSimExecutor,
        )

        num_stages = 2
        cost = LayerCostModel(LLAMA3_8B, GPU, strategy="fused_multi")
        sched = SchedulerConfig(capacity=8192, num_stages=num_stages,
                                use_milp=False)
        estimator = CostEstimator.for_scheduler(cost, sched)
        light = AdapterJob(2, synthetic_dataset(2, "xsum", 32, seed=3), 8)
        workload = [
            # Two deadline-free heavy residents hold the pipeline, so
            # the wave backlog ahead of any later arrival is large.
            ServeJob(
                job=AdapterJob(
                    a, synthetic_dataset(a, "wikisum", 32, seed=3), 8
                ),
                arrival_time=0.0,
            )
            for a in range(2)
        ] + [
            # Arrives mid-run; its deadline comfortably fits its solo
            # service time (the service-only gate admits it at the next
            # wave boundary) but not the residents' planned backlog
            # (the queueing-aware gate sheds it there instead).
            ServeJob(job=light, arrival_time=0.01,
                     deadline=0.01 + 4.0 * estimator.job_seconds(light)),
        ]
        config = OrchestratorConfig(
            scheduler=sched,
            window_batches=1,
            admission=DeadlineFeasibilityAdmission(
                SlotAdmission(3), queueing_aware=queueing_aware
            ),
            ordering=DeadlineOrdering(),
            estimator=estimator,
        )
        orchestrator = OnlineOrchestrator(
            StreamingSimExecutor(cost, num_stages), config
        )
        result = orchestrator.run(workload)
        assert result.violations == 0
        return result

    def test_queueing_aware_sheds_what_service_only_serves_late(self):
        service = self.serve(queueing_aware=False)
        queueing = self.serve(queueing_aware=True)
        assert service.rejected == 0
        assert service.records[2].deadline_missed is True
        assert queueing.rejected == 1
        assert queueing.records[2].rejected_time is not None


class TestCustomGate:
    """A custom admission policy's ``feasible`` is called as
    ``feasible(view, now, backlog)`` -- the one gate calling convention."""

    def test_gate_receives_the_replica_backlog(self):
        from repro.data import synthetic_dataset
        from repro.models.layer_costs import LayerCostModel
        from repro.scheduler import AdapterJob, SchedulerConfig
        from repro.serve import (
            CostEstimator,
            OnlineOrchestrator,
            OrchestratorConfig,
            ServeJob,
            StreamingSimExecutor,
        )

        class RecordingGate:
            def __init__(self):
                self.orchestrator = None
                self.calls = []

            def max_concurrent(self):
                return 3

            def feasible(self, view, now, backlog):
                expected = self.orchestrator.expected_wave_seconds() or 0.0
                self.calls.append((view.adapter_id, now, backlog, expected))
                return True

        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        sched = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
        gate = RecordingGate()
        config = OrchestratorConfig(
            scheduler=sched,
            window_batches=1,
            admission=gate,
            estimator=CostEstimator.for_scheduler(cost, sched),
        )
        orchestrator = OnlineOrchestrator(StreamingSimExecutor(cost, 2), config)
        gate.orchestrator = orchestrator
        workload = [
            ServeJob(
                job=AdapterJob(a, synthetic_dataset(a, "wikisum", 16, seed=3), 8),
                arrival_time=0.0 if a < 2 else 0.01,
            )
            for a in range(3)
        ]
        result = orchestrator.run(workload)
        assert result.rejected == 0
        assert {call[0] for call in gate.calls} == {0, 1, 2}
        # The third argument is the replica's priced wave backlog, and
        # the late arrival queues behind planned work.
        assert all(call[2] == call[3] for call in gate.calls)
        assert any(call[0] == 2 and call[2] > 0 for call in gate.calls)
