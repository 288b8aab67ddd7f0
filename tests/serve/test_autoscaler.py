"""Tests for elastic autoscaling: policy logic, kernel-native scale
events, spot reclamation, and interval-weighted fleet accounting."""

import numpy as np
import pytest

from repro.data.dataset import FinetuneDataset, Sample
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.gpu.specs import get_gpu
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CapacityPool,
    CostAwareRouting,
    CostEstimator,
    FleetAutoscaler,
    OrchestratorConfig,
    ReclamationNotice,
    ReplicaSet,
    ReplicaSetConfig,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)
from tests.golden.scenarios import elastic, one_sample_jobs
from tests.helpers import fingerprint

NUM_STAGES = 2
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=8192, num_stages=NUM_STAGES, use_milp=False)

ON_DEMAND = CapacityPool("a100", "a100-sxm", hourly_rate=4.0, limit=4)
SPOT = CapacityPool(
    "l40s-spot", "l40s", hourly_rate=1.0, limit=4, speed_factor=2.0, spot=True
)


def make_scaler(**overrides):
    kwargs = dict(
        pools=(ON_DEMAND, SPOT),
        budget_per_hour=20.0,
        initial_pools=("a100",),
        scale_up_backlog=0.4,
        scale_down_backlog=0.05,
        provision_delay=0.1,
        cooldown=0.1,
    )
    kwargs.update(overrides)
    return FleetAutoscaler(**kwargs)


def make_jobs(count, seed=17):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(64, 512, size=16)
    return [
        AdapterJob(
            a,
            FinetuneDataset(a, [Sample(a, 0, int(lengths[a % 16]))]),
            1,
        )
        for a in range(count)
    ]


def elastic_set(scaler, initial=1):
    estimator = CostEstimator.for_scheduler(COST, SCHED)
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=1,
            admission=SlotAdmission(4),
            estimator=estimator,
        ),
        routing=CostAwareRouting(estimator),
        migration_time_threshold=30.0,
        autoscaler=scaler,
        executor_factory=lambda pool: StreamingSimExecutor(
            LayerCostModel(
                LLAMA3_8B, get_gpu(pool.gpu), strategy="fused_multi"
            ),
            NUM_STAGES,
        ),
    )
    executors = [StreamingSimExecutor(COST, NUM_STAGES) for _ in range(initial)]
    return ReplicaSet(executors, config)


class TestCapacityPool:
    def test_unknown_gpu_key_fails_fast(self):
        with pytest.raises(KeyError):
            CapacityPool("x", "tpu-v5", hourly_rate=1.0, limit=1)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            CapacityPool("", "l40s", hourly_rate=1.0, limit=1)
        with pytest.raises(ScheduleError):
            CapacityPool("x", "l40s", hourly_rate=-1.0, limit=1)
        with pytest.raises(ScheduleError):
            CapacityPool("x", "l40s", hourly_rate=1.0, limit=0)
        with pytest.raises(ScheduleError):
            CapacityPool("x", "l40s", hourly_rate=1.0, limit=1,
                         speed_factor=0.0)

    def test_notice_validation(self):
        with pytest.raises(ScheduleError):
            ReclamationNotice(time=-1.0, count=1, deadline=0.5)
        with pytest.raises(ScheduleError):
            ReclamationNotice(time=0.0, count=0, deadline=0.5)
        with pytest.raises(ScheduleError):
            ReclamationNotice(time=0.0, count=1, deadline=-0.5)


class TestAutoscalerPolicy:
    def test_config_validation(self):
        with pytest.raises(ScheduleError):
            make_scaler(pools=())
        with pytest.raises(ScheduleError):
            make_scaler(pools=(ON_DEMAND, ON_DEMAND))
        with pytest.raises(ScheduleError):
            make_scaler(budget_per_hour=0.0)
        with pytest.raises(ScheduleError):
            make_scaler(scale_up_backlog=1.0, scale_down_backlog=1.0)
        with pytest.raises(ScheduleError):
            make_scaler(initial_pools=("h100-reserved",))
        with pytest.raises(ScheduleError):
            make_scaler(min_replicas=0)

    def test_attach_bills_budget_and_enforces_limits(self):
        scaler = make_scaler()
        pool = scaler.attach(0, "a100")
        assert pool is ON_DEMAND
        assert scaler._committed_rate == 4.0
        for index in range(1, 4):
            scaler.attach(index, "a100")
        with pytest.raises(ScheduleError, match="limit"):
            scaler.attach(4, "a100")

    def test_attach_refuses_over_budget_fleet(self):
        scaler = make_scaler(budget_per_hour=5.0)
        scaler.attach(0, "a100")
        with pytest.raises(ScheduleError, match="budget"):
            scaler.attach(1, "a100")

    def test_scale_up_buys_cheapest_available_pool(self):
        scaler = make_scaler()
        scaler.attach(0, "a100")
        decision = scaler.plan(0.0, [(0, 10.0)], pressure=0)
        assert decision == ("join", SPOT)  # $1/h beats $4/h
        assert scaler._committed_rate == 5.0  # billed at the decision

    def test_scale_up_respects_budget_ceiling(self):
        scaler = make_scaler(budget_per_hour=4.5)
        scaler.attach(0, "a100")
        # Only $0.50/h headroom: even the $1/h spot pool is refused.
        assert scaler.plan(0.0, [(0, 10.0)], pressure=0) is None

    def test_deadline_pressure_forces_scale_up(self):
        scaler = make_scaler()
        scaler.attach(0, "a100")
        # Backlog well below the up threshold, but a queued job is
        # already priced as missed.
        assert scaler.plan(0.0, [(0, 0.0)], pressure=1) == ("join", SPOT)

    def test_hysteresis_band_holds_fleet_size(self):
        scaler = make_scaler()
        scaler.attach(0, "a100")
        scaler.attach(1, "a100")
        per = (scaler.scale_up_backlog + scaler.scale_down_backlog) / 2
        assert scaler.plan(0.0, [(0, per), (1, per)], pressure=0) is None

    def test_cooldown_spaces_actions(self):
        scaler = make_scaler(cooldown=10.0)
        scaler.attach(0, "a100")
        assert scaler.plan(0.0, [(0, 10.0)], pressure=0) is not None
        assert not scaler.ready(5.0)
        assert scaler.plan(5.0, [(0, 10.0)], pressure=0) is None
        assert scaler.plan(10.0, [(0, 10.0)], pressure=0) is not None

    def test_scale_down_retires_emptiest_then_priciest_then_youngest(self):
        scaler = make_scaler(cooldown=0.0)
        scaler.attach(0, "a100")
        scaler.attach(1, "l40s-spot")
        scaler.attach(2, "l40s-spot")
        # Distinct backlogs: the emptiest replica goes.
        assert scaler.plan(0.0, [(0, 0.0), (1, 0.01), (2, 0.02)],
                           pressure=0) == ("retire", 0)
        # Equal backlogs: the most expensive pool goes first.
        assert scaler.plan(0.0, [(0, 0.0), (1, 0.0), (2, 0.0)],
                           pressure=0) == ("retire", 0)
        # Same pool and backlog: the youngest (highest index) goes.
        assert scaler.plan(0.0, [(1, 0.0), (2, 0.0)],
                           pressure=0) == ("retire", 2)

    def test_scale_down_respects_min_replicas(self):
        scaler = make_scaler(min_replicas=2, cooldown=0.0)
        scaler.attach(0, "a100")
        scaler.attach(1, "a100")
        assert scaler.plan(0.0, [(0, 0.0), (1, 0.0)], pressure=0) is None

    def test_retirement_frees_budget_for_a_new_join(self):
        scaler = make_scaler(budget_per_hour=5.0, cooldown=0.0)
        scaler.attach(0, "a100")
        scaler.attach(1, "l40s-spot")
        assert scaler.plan(0.0, [(0, 10.0), (1, 10.0)], pressure=0) is None
        scaler.on_retired(1)
        assert scaler._committed_rate == 4.0
        assert scaler.plan(0.0, [(0, 10.0)], pressure=0) == ("join", SPOT)

    def test_reclaim_takes_only_spot_newest_first_never_all(self):
        scaler = make_scaler()
        scaler.attach(0, "a100")
        scaler.attach(1, "l40s-spot")
        scaler.attach(2, "l40s-spot")
        assert scaler.pick_reclaim_victims(1, [0, 1, 2]) == [2]
        assert scaler.pick_reclaim_victims(5, [0, 1, 2]) == [2, 1]
        # The sole routable replica survives any notice.
        assert scaler.pick_reclaim_victims(1, [1]) == []
        # On-demand capacity is never reclaimed.
        assert scaler.pick_reclaim_victims(2, [0]) == []


class TestElasticConfigValidation:
    def test_autoscaler_requires_estimator(self):
        with pytest.raises(ScheduleError, match="estimator"):
            ReplicaSetConfig(
                orchestrator=OrchestratorConfig(scheduler=SCHED),
                autoscaler=make_scaler(),
                executor_factory=lambda pool: StreamingSimExecutor(
                    COST, NUM_STAGES
                ),
            )

    def test_autoscaler_requires_executor_factory(self):
        estimator = CostEstimator.for_scheduler(COST, SCHED)
        with pytest.raises(ScheduleError, match="factory"):
            ReplicaSetConfig(
                orchestrator=OrchestratorConfig(
                    scheduler=SCHED, estimator=estimator
                ),
                autoscaler=make_scaler(),
            )

    def test_initial_pools_must_match_executor_count(self):
        with pytest.raises(ScheduleError, match="initial pool"):
            elastic_set(make_scaler(initial_pools=("a100", "a100")), initial=1)


class TestElasticFleet:
    def run_flash_crowd(self, scaler, jobs=160, rate=120.0, seed=7):
        return self.serve_flash_crowd(scaler, jobs, rate, seed)[1]

    def serve_flash_crowd(self, scaler, jobs=160, rate=120.0, seed=7):
        workload = poisson_workload(make_jobs(jobs, seed + 10), rate=rate,
                                    rng=seed)
        replica_set = elastic_set(scaler)
        return replica_set, replica_set.run(workload)

    def test_flash_crowd_scales_up_and_completes_every_job(self):
        result = self.run_flash_crowd(make_scaler())
        assert result.joins >= 1
        assert "REPLICA_JOIN" in result.events_processed
        for record in result.records.values():
            assert record.finish_time is not None

    def test_scale_events_rerun_byte_identical(self):
        first_set, first = self.serve_flash_crowd(make_scaler())
        second_set, second = self.serve_flash_crowd(make_scaler())
        assert fingerprint(first, first_set) == fingerprint(second, second_set)
        assert first.makespan == second.makespan
        assert first.events_processed == second.events_processed

    def test_quiet_tail_scales_back_down(self):
        result = self.run_flash_crowd(make_scaler())
        assert result.retires >= 1
        # Retired replicas stop billing: their intervals end before the
        # fleet's.
        ends = [end for _, end in result.replica_intervals]
        assert min(ends) < max(ends)

    def test_join_lands_after_provision_delay(self):
        scaler = make_scaler(provision_delay=0.3)
        result = self.run_flash_crowd(scaler)
        assert result.joins >= 1
        # A joined replica's active interval starts at its landing, and
        # capacity is never instant.
        late_starts = [start for start, _ in result.replica_intervals
                       if start > 0.0]
        assert late_starts and min(late_starts) >= 0.3

    def test_gpu_seconds_and_dollars_match_intervals(self):
        result = self.run_flash_crowd(make_scaler())
        spans = [end - start for start, end in result.replica_intervals]
        assert result.gpu_seconds == pytest.approx(sum(spans))
        assert result.dollars_spent <= sum(spans) * 4.0 / 3600.0 + 1e-12
        assert result.dollars_spent > 0.0

    def test_utilization_is_interval_weighted(self):
        result = self.run_flash_crowd(make_scaler())
        busy = sum(r.utilization * r.makespan for r in result.replicas)
        spans = [end - start for start, end in result.replica_intervals]
        assert result.utilization() == pytest.approx(busy / sum(spans))

    def test_fixed_fleet_reports_no_intervals(self):
        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=SCHED, window_batches=1, admission=SlotAdmission(4)
            ),
        )
        executors = [StreamingSimExecutor(COST, NUM_STAGES) for _ in range(2)]
        workload = poisson_workload(make_jobs(8), rate=2.0, rng=5)
        result = ReplicaSet(executors, config).run(workload)
        assert result.replica_intervals == []
        assert result.gpu_seconds == 0.0
        assert result.dollars_spent == 0.0
        assert result.joins == result.retires == result.reclaims == 0


class TestRebalanceUnderScaleDown:
    """A scale-down retire the probe posts just before a rebalance check
    runs ahead of the move that check plans.  A plan whose source or
    target the retire took out of the fleet is dropped, never applied:
    applied, it either ejected a job the evacuation had already moved
    (a crash) or landed one on the retired replica, which went on
    serving it unbilled."""

    @pytest.mark.parametrize(
        "seed, rate, threshold, slots",
        [(3, 200.0, 0.02, 1), (0, 400.0, 0.1, 2)],
        ids=["source-retired", "target-retired"],
    )
    def test_no_job_lands_on_a_replica_that_left_the_fleet(
        self, monkeypatch, seed, rate, threshold, slots
    ):
        landed = []
        land = ReplicaSet._land

        def checked_land(self, ticket, target):
            landed.append(target in self._unroutable)
            return land(self, ticket, target)

        monkeypatch.setattr(ReplicaSet, "_land", checked_land)
        workload = poisson_workload(one_sample_jobs(60, 23), rate=rate, rng=seed)
        replica_set = elastic(
            ("a100",), slots=slots, migration_time_threshold=threshold
        )
        result = replica_set.run(workload)
        assert result.retires > 0 and result.events_processed["MIGRATION"] > 0
        assert landed and not any(landed)
        assert all(r.finish_time is not None for r in result.records.values())


class TestSpotReclamation:
    def run_reclaim(self, deadline=0.2, time=1.0, count=2, seed=7,
                    jobs=200, rate=150.0):
        return self.serve_reclaim(deadline, time, count, seed, jobs, rate)[1]

    def serve_reclaim(self, deadline=0.2, time=1.0, count=2, seed=7,
                      jobs=200, rate=150.0):
        scaler = make_scaler(
            reclamations=(ReclamationNotice(time=time, count=count,
                                            deadline=deadline),),
        )
        workload = poisson_workload(make_jobs(jobs, seed + 10), rate=rate,
                                    rng=seed)
        replica_set = elastic_set(scaler)
        return replica_set, replica_set.run(workload)

    def test_mass_reclaim_loses_zero_jobs(self):
        result = self.run_reclaim()
        assert result.reclaims >= 1
        for record in result.records.values():
            assert record.finish_time is not None

    def test_reclaim_latency_bounded_by_grace_window(self):
        result = self.run_reclaim(deadline=0.2)
        assert result.reclaim_latencies
        for latency in result.reclaim_latencies:
            assert 0.0 <= latency <= 0.2 + 1e-9
        assert result.mean_reclaim_latency() == pytest.approx(
            sum(result.reclaim_latencies) / len(result.reclaim_latencies)
        )

    def test_zero_grace_forces_evacuation_at_the_notice(self):
        result = self.run_reclaim(deadline=0.0)
        assert result.reclaims >= 1
        # No grace: anything resident is force-drained immediately, and
        # still nothing is lost.
        for record in result.records.values():
            assert record.finish_time is not None

    def test_reclaim_rerun_byte_identical(self):
        first_set, first = self.serve_reclaim()
        second_set, second = self.serve_reclaim()
        assert fingerprint(first, first_set) == fingerprint(second, second_set)
        assert first.reclaim_latencies == second.reclaim_latencies
        assert first.forced_evacuations == second.forced_evacuations

    def test_evacuated_jobs_keep_their_migration_counts(self):
        result = self.run_reclaim()
        moved = sum(r.migrations for r in result.records.values())
        assert moved + result.reroutes >= result.reclaims


class TestElasticPackingIdentities:
    """The packing counters' fleet aggregation identities must survive
    elasticity: replicas that join mid-run (``REPLICA_JOIN``) and retire
    early (``REPLICA_RETIRE``) contribute exactly their own streams --
    no double counting at scale events, no phantom slots from retired
    pipelines."""

    def run_elastic(self):
        workload = poisson_workload(make_jobs(160, 17), rate=120.0, rng=7)
        result = elastic_set(make_scaler()).run(workload)
        # The run must actually exercise both scale directions, or the
        # identities below would be the fixed-fleet ones in disguise.
        assert result.joins >= 1 and result.retires >= 1
        assert "REPLICA_JOIN" in result.events_processed
        assert "REPLICA_RETIRE" in result.events_processed
        return result

    def test_padding_waste_is_the_merged_stream_identity(self):
        result = self.run_elastic()
        tokens = sum(r.total_tokens for r in result.replicas)
        padded = sum(r.total_padded_tokens for r in result.replicas)
        assert padded > 0
        assert result.total_padded_tokens == padded
        assert result.padding_waste() == pytest.approx(1.0 - tokens / padded)

    def test_bubble_rate_is_the_merged_stream_identity(self):
        result = self.run_elastic()
        noops = sum(r.noop_microbatches for r in result.replicas)
        slots = sum(r.total_microbatches for r in result.replicas)
        assert slots > 0
        assert result.bubble_rate() == pytest.approx(noops / slots)

    def test_pack_efficiency_is_the_budget_weighted_identity(self):
        result = self.run_elastic()
        budget = sum(
            r.capacity * (r.total_microbatches - r.noop_microbatches)
            for r in result.replicas
        )
        tokens = sum(r.total_tokens for r in result.replicas)
        assert budget > 0
        assert result.pack_efficiency() == pytest.approx(tokens / budget)
        # With one uniform capacity the fleet number is also the merged
        # per-replica mean, weighted by each replica's real slots.
        weights = [
            r.total_microbatches - r.noop_microbatches
            for r in result.replicas
        ]
        merged = sum(
            r.pack_efficiency() * w
            for r, w in zip(result.replicas, weights)
        ) / sum(weights)
        assert result.pack_efficiency() == pytest.approx(merged)
