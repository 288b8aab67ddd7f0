"""Tests for multi-replica serving: routing, rebalancing, aggregation."""

import math

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig, find_violations
from repro.serve import (
    EventKernel,
    EventKind,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    RoundRobinRouting,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)
from repro.serve.replicaset import _pick_migrant
from tests.lockstep_reference import run_lockstep, views

DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]
NUM_STAGES = 2
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")


class StickyRouting:
    """Degenerate policy pinning every tenant to replica 0 (test-only)."""

    def choose(self, job, replicas):
        return 0


def make_jobs(count, samples=16, gbs=8, seed=3):
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], samples, seed=seed),
                   gbs)
        for a in range(count)
    ]


def make_set(num_replicas, routing=None, threshold=None, slots=4, window=1,
             num_stages=NUM_STAGES):
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SchedulerConfig(capacity=8192, num_stages=num_stages,
                                      use_milp=False),
            window_batches=window,
            admission=SlotAdmission(slots) if slots else None,
        ),
        routing=routing,
        migration_threshold=threshold,
    )
    executors = [
        StreamingSimExecutor(COST, num_stages) for _ in range(num_replicas)
    ]
    return ReplicaSet(executors, config)


def poisson(jobs, rate=1.0, rng=5):
    return poisson_workload(jobs, rate=rate, rng=rng)


class TestReplicaSetServing:
    def test_all_jobs_complete_with_zero_violations(self):
        workload = poisson(make_jobs(8))
        result = make_set(2).run(workload)
        assert result.violations == 0
        for replica in make_set(2).replicas:
            assert replica.stream == []  # fresh set untouched
        for job in workload:
            record = result.records[job.adapter_id]
            assert record.finish_time is not None
            assert record.replica in (0, 1)

    def test_each_replica_stream_is_bubble_safe_and_stamped(self):
        workload = poisson(make_jobs(6))
        replica_set = make_set(3)
        replica_set.run(workload)
        for index, replica in enumerate(replica_set.replicas):
            assert find_violations(replica.stream, NUM_STAGES) == []
            assert all(mb.replica == index for mb in replica.stream)

    def test_every_sample_served_exactly_once_across_replicas(self):
        jobs = make_jobs(6, samples=12, gbs=4)
        replica_set = make_set(2)
        replica_set.run(poisson(jobs))
        for job in jobs:
            seen = sorted(
                a.sample.index
                for replica in replica_set.replicas
                for mb in replica.stream
                for a in mb.assignments
                if a.adapter_id == job.adapter_id
            )
            assert seen == list(range(len(job.dataset)))

    def test_two_replicas_beat_one_on_job_throughput(self):
        jobs = make_jobs(8)
        single = make_set(1).run(poisson(jobs))
        double = make_set(2).run(poisson(jobs))
        assert double.jobs_per_time() > single.jobs_per_time()
        assert double.makespan <= single.makespan

    def test_round_robin_spreads_tenants(self):
        workload = [
            ServeJob(job=job, arrival_time=0.0) for job in make_jobs(4)
        ]
        replica_set = make_set(2, routing=RoundRobinRouting())
        replica_set.run(workload)
        assert sorted(replica_set.router.assignments.values()) == [0, 0, 1, 1]

    def test_run_is_single_shot(self):
        workload = poisson(make_jobs(2))
        replica_set = make_set(2)
        replica_set.run(workload)
        with pytest.raises(ScheduleError, match="single-shot"):
            replica_set.run(workload)

    def test_duplicate_adapter_ids_rejected(self):
        job = make_jobs(1)[0]
        workload = [
            ServeJob(job=job, arrival_time=0.0),
            ServeJob(job=job, arrival_time=1.0),
        ]
        with pytest.raises(ScheduleError, match="duplicate"):
            make_set(2).run(workload)

    def test_a_refused_workload_leaves_the_shot_unused(self):
        # The duplicate-id check runs before the set's single run is
        # consumed, so the same set still serves a valid workload.
        jobs = make_jobs(2)
        replica_set = make_set(2)
        with pytest.raises(ScheduleError, match="duplicate"):
            replica_set.run([
                ServeJob(job=jobs[0], arrival_time=0.0),
                ServeJob(job=jobs[0], arrival_time=1.0),
            ])
        result = replica_set.run(poisson(jobs))
        assert sorted(result.records) == [0, 1]
        assert all(r.finish_time is not None for r in result.records.values())

    @pytest.mark.parametrize(
        "workload", [None, 7, [1, 2], ["job"]],
        ids=["none", "int", "ints", "strs"],
    )
    def test_a_malformed_workload_is_refused_before_the_shot(self, workload):
        # Not an iterable, or items that are no ServeJob: a typed
        # refusal, and the set's single run is still unused.
        replica_set = make_set(2)
        with pytest.raises(ScheduleError, match="ServeJob"):
            replica_set.run(workload)
        result = replica_set.run(poisson(make_jobs(2)))
        assert sorted(result.records) == [0, 1]

    def test_kernel_is_empty_after_a_run(self):
        # Every wave close is handed out before its replica steps; the
        # kernel must not count it live again when the replica resyncs.
        replica_set = make_set(2, threshold=1)
        result = replica_set.run(poisson(make_jobs(6)))
        assert result.events_processed["WAVE_CLOSE"] > 0
        assert len(replica_set.kernel) == 0

    def test_a_wave_close_at_the_replica_clock_is_kept(self, monkeypatch):
        # An event that leaves a replica's clock where it was keeps the
        # replica's pending wave close: none is cancelled and re-pushed
        # at the same (time, replica).
        repushed, last = [], {}
        cancel, schedule = EventKernel.cancel, EventKernel.schedule

        def tracked_cancel(kernel, event):
            last["cancel"] = (event.kind, event.time, event.lane)
            cancel(kernel, event)

        def tracked_schedule(kernel, time, kind, payload=None, lane=0):
            if last.pop("cancel", None) == (kind, time, lane):
                repushed.append((time, lane))
            return schedule(kernel, time, kind, payload, lane)

        monkeypatch.setattr(EventKernel, "cancel", tracked_cancel)
        monkeypatch.setattr(EventKernel, "schedule", tracked_schedule)
        result = make_set(2, threshold=1).run(poisson(make_jobs(6)))
        assert result.events_processed["WAVE_CLOSE"] > 0
        assert repushed == []

    def test_zero_executors_rejected(self):
        with pytest.raises(ScheduleError, match="at least one"):
            ReplicaSet([], make_set(1).config)


class TestFleetSession:
    def test_ingest_behind_an_advanced_frontier_is_rejected(self):
        # The job would replay at a different heap position than it ran.
        session = make_set(2).open_session()
        session.advance(10.0)
        late = ServeJob(job=make_jobs(1)[0], arrival_time=1.0)
        with pytest.raises(ScheduleError, match="frontier"):
            session.ingest(late)
        assert session.record(0) is None

    def test_frontier_never_rewinds_and_admits_its_own_stamp(self):
        session = make_set(2).open_session()
        session.advance(10.0)
        session.advance(4.0)  # a smaller frontier does not rewind it
        jobs = make_jobs(2)
        with pytest.raises(ScheduleError, match="frontier"):
            session.ingest(ServeJob(job=jobs[0], arrival_time=4.0))
        session.ingest(ServeJob(job=jobs[1], arrival_time=10.0))
        result = session.finish()
        assert result.records[1].finish_time is not None

    def test_nan_frontier_is_rejected_and_inf_is_legal(self):
        # A NaN frontier would pump the whole fleet yet keep the frontier
        # at -inf, so a later arrival behind the pumped events would run
        # out of replay order.
        session = make_set(2).open_session()
        jobs = make_jobs(2)
        session.ingest(ServeJob(job=jobs[0], arrival_time=5.0))
        with pytest.raises(ScheduleError, match="NaN"):
            session.advance(math.nan)
        assert session.record(0) is None  # nothing was pumped
        session.advance(math.inf)
        assert session.record(0).finish_time is not None
        with pytest.raises(ScheduleError, match="frontier"):
            session.ingest(ServeJob(job=jobs[1], arrival_time=1.0))

    @pytest.mark.parametrize("frontier", [None, "5.0", 1j, [1.0]])
    def test_a_frontier_that_is_not_a_real_number_is_rejected(self, frontier):
        session = make_set(1).open_session()
        session.ingest(ServeJob(job=make_jobs(1)[0], arrival_time=0.0))
        with pytest.raises(ScheduleError, match="real number"):
            session.advance(frontier)
        assert session.record(0) is None  # nothing was pumped
        session.advance(math.inf)
        assert session.record(0).finish_time is not None

    @pytest.mark.parametrize(
        "job", [1, None, "job", make_jobs(1)[0]],
        ids=["int", "none", "str", "adapter-job"],
    )
    def test_ingesting_anything_but_a_serve_job_is_refused(self, job):
        # A bare AdapterJob, too: it carries no arrival stamp.
        session = make_set(2).open_session()
        with pytest.raises(ScheduleError, match="ServeJob"):
            session.ingest(job)
        session.ingest(ServeJob(job=make_jobs(1)[0], arrival_time=0.0))
        assert session.finish().records[0].finish_time is not None

    def test_session_consumes_the_single_shot(self):
        replica_set = make_set(1)
        replica_set.open_session()
        with pytest.raises(ScheduleError, match="single-shot"):
            replica_set.open_session()


class TestRebalancing:
    def sticky_workload(self):
        """One long tenant at t=0, two short ones just after.

        With sticky routing, a threshold of 8, and a depth-1 pipeline
        (every scheduled batch steps at submit, so the long job sits at a
        step boundary between waves), the two short arrivals push replica
        0's backlog to 9 while replica 1 idles; the long job's remaining
        5 batches are then the move that best evens the pair, forcing an
        *active* (state-carrying) migration.
        """
        long_job = AdapterJob(0, synthetic_dataset(0, "xsum", 12, seed=3), 2)
        shorts = [
            AdapterJob(a, synthetic_dataset(a, "xsum", 4, seed=3), 2)
            for a in (1, 2)
        ]
        return [
            ServeJob(job=long_job, arrival_time=0.0),
            ServeJob(job=shorts[0], arrival_time=0.01),
            ServeJob(job=shorts[1], arrival_time=0.01),
        ]

    def test_skew_triggers_active_migration(self):
        replica_set = make_set(2, routing=StickyRouting(), threshold=8,
                               num_stages=1)
        result = replica_set.run(self.sticky_workload())
        assert result.migrations >= 1
        migrated = [r for r in result.records.values() if r.migrations > 0]
        assert migrated and all(r.finish_time is not None for r in migrated)
        assert result.violations == 0
        # The migrated job's record lives on (and only on) its final replica.
        for record in migrated:
            assert record.replica == 1
            assert record.adapter_id in result.replicas[1].records
            assert record.adapter_id not in result.replicas[0].records

    def test_migrated_job_splits_its_stream_across_replicas(self):
        replica_set = make_set(2, routing=StickyRouting(), threshold=8,
                               num_stages=1)
        result = replica_set.run(self.sticky_workload())
        migrated = next(
            r.adapter_id for r in result.records.values() if r.migrations > 0
        )
        per_replica = []
        for replica in replica_set.replicas:
            batches = sorted(
                {
                    a.global_batch
                    for mb in replica.stream
                    for a in mb.assignments
                    if a.adapter_id == migrated
                }
            )
            per_replica.append(batches)
        assert per_replica[0] and per_replica[1]
        # Source replica ran a strict prefix of the batch indices, the
        # destination the remaining suffix -- no overlap, no gap.
        assert per_replica[0][-1] + 1 == per_replica[1][0]
        combined = per_replica[0] + per_replica[1]
        assert combined == list(range(len(combined)))

    def test_pending_jobs_reroute_before_state_moves(self):
        # All tenants equal-sized: the best skew reducer is a queue move.
        jobs = make_jobs(4, samples=8, gbs=4)
        workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
        replica_set = make_set(2, routing=StickyRouting(), threshold=2)
        result = replica_set.run(workload)
        assert result.reroutes >= 1
        assert all(
            r.finish_time is not None for r in result.records.values()
        )

    def test_single_replica_rebalance_is_a_noop(self):
        # Edge case: with one replica there is no pair to even out, so
        # a (very trigger-happy) seconds-skew threshold never fires.
        scheduler = SchedulerConfig(capacity=8192, num_stages=NUM_STAGES,
                                    use_milp=False)
        from repro.serve import CostEstimator

        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=scheduler,
                window_batches=1,
                admission=SlotAdmission(4),
                estimator=CostEstimator.for_scheduler(COST, scheduler),
            ),
            migration_time_threshold=0.0,
            drain_then_migrate=True,
        )
        replica_set = ReplicaSet(
            [StreamingSimExecutor(COST, NUM_STAGES)], config
        )
        result = replica_set.run(poisson(make_jobs(3)))
        assert result.migrations == 0
        assert result.reroutes == 0
        assert result.rebalance_drains == 0
        assert all(r.finish_time is not None for r in result.records.values())

    def deep_pipeline_set(self, drain):
        """Two admitted jobs on replica 0, a 4-stage pipeline, no
        pendings: between steps the wave tail is always in flight, so
        without a drain nothing is migratable."""
        from repro.serve import CostEstimator

        num_stages = 4
        scheduler = SchedulerConfig(capacity=8192, num_stages=num_stages,
                                    use_milp=False)
        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=scheduler,
                window_batches=1,
                admission=SlotAdmission(2),
                estimator=CostEstimator.for_scheduler(COST, scheduler),
            ),
            routing=StickyRouting(),
            migration_time_threshold=0.05,
            drain_then_migrate=drain,
        )
        executors = [StreamingSimExecutor(COST, num_stages) for _ in range(2)]
        replica_set = ReplicaSet(executors, config)
        workload = [
            ServeJob(job=job, arrival_time=0.0)
            for job in make_jobs(2, samples=24, gbs=4)
        ]
        return replica_set, workload

    def test_deep_pipeline_falls_back_to_pending_reroutes(self):
        replica_set, workload = self.deep_pipeline_set(drain=False)
        result = replica_set.run(workload)
        # The in-flight wave tail blocks *active* migration at every
        # check, so the only rebalancing a deep pipeline gets without a
        # drain is queue moves of still-pending arrivals.
        assert result.migrations == 0
        assert result.reroutes >= 1
        assert result.rebalance_drains == 0
        assert all(r.finish_time is not None for r in result.records.values())

    def test_drain_then_migrate_unlocks_the_deep_pipeline(self):
        replica_set, workload = self.deep_pipeline_set(drain=True)
        result = replica_set.run(workload)
        assert result.rebalance_drains >= 1
        assert result.migrations >= 1
        assert result.violations == 0
        assert all(r.finish_time is not None for r in result.records.values())
        # The migrated job really finished on the other pipeline.
        assert any(r.replica == 1 for r in result.records.values())
        # Drains are *partial*: forcing only through the migrant's last
        # in-flight microbatch left other tenants' steps un-forced.
        assert result.drain_steps_saved > 0

    def test_drain_steps_saved_is_zero_without_drains(self):
        replica_set, workload = self.deep_pipeline_set(drain=False)
        result = replica_set.run(workload)
        assert result.rebalance_drains == 0
        assert result.drain_steps_saved == 0

    def test_event_counters_exposed_on_event_kernel_only(self):
        counts = {}
        for serve in (ReplicaSet.run, run_lockstep):
            config = ReplicaSetConfig(
                orchestrator=OrchestratorConfig(
                    scheduler=SchedulerConfig(capacity=8192,
                                              num_stages=NUM_STAGES,
                                              use_milp=False),
                    window_batches=1,
                    admission=SlotAdmission(4),
                ),
            )
            executors = [StreamingSimExecutor(COST, NUM_STAGES)
                         for _ in range(2)]
            result = serve(ReplicaSet(executors, config),
                           poisson(make_jobs(4)))
            counts[serve.__name__] = result.events_processed
        assert counts["run_lockstep"] == {}
        assert counts["run"]["ARRIVAL"] == 4
        assert counts["run"]["WAVE_CLOSE"] > 0

    def test_seconds_skew_tie_picks_lowest_adapter_id(self):
        # Edge case: two migrants even the seconds gap equally well; the
        # pick must be deterministic (pending beats active, then lowest
        # adapter id) so reruns rebalance identically.
        jobs = [
            (7, 4, 1.0, False),  # active, evens gap to |3-2|=1
            (3, 4, 1.0, True),   # pending, same weight: wins
            (5, 4, 1.0, True),   # pending, same weight, higher id
            (1, 4, 2.9, True),   # would overshoot: |3-5.8|=2.8
        ]
        pick = _pick_migrant(jobs, skew=3.0, seconds_mode=True,
                             exclude=frozenset(), slot_free=True)
        assert pick == 3
        # Same weights, no pendings: the active tie breaks by id too.
        jobs = [(9, 4, 1.0, False), (6, 4, 1.0, False)]
        assert _pick_migrant(jobs, 3.0, True, frozenset(), True) == 6
        # An active job needs a free slot on the target.
        assert _pick_migrant(jobs, 3.0, True, frozenset(), False) is None
        # Seconds mode refuses unpriced candidates outright.
        assert _pick_migrant([(2, 4, None, True)], 3.0, True, frozenset(),
                             True) is None

    def test_time_threshold_requires_estimator(self):
        config = OrchestratorConfig(
            scheduler=SchedulerConfig(capacity=8192, num_stages=NUM_STAGES,
                                      use_milp=False),
            window_batches=1,
        )
        with pytest.raises(ScheduleError, match="estimator"):
            ReplicaSetConfig(orchestrator=config, migration_time_threshold=1.0)

    def test_drain_requires_a_trigger(self):
        config = OrchestratorConfig(
            scheduler=SchedulerConfig(capacity=8192, num_stages=NUM_STAGES,
                                      use_milp=False),
            window_batches=1,
        )
        with pytest.raises(ScheduleError, match="drain_then_migrate"):
            ReplicaSetConfig(orchestrator=config, drain_then_migrate=True)

    def test_threshold_none_never_migrates(self):
        replica_set = make_set(2, routing=StickyRouting(), threshold=None)
        result = replica_set.run(self.sticky_workload())
        assert result.migrations == 0
        assert result.reroutes == 0
        assert all(r.replica == 0 for r in result.records.values())

    def test_negative_threshold_rejected(self):
        with pytest.raises(ScheduleError, match="migration_threshold"):
            make_set(2, threshold=-1)


class TestCrossReplicaAggregation:
    @pytest.fixture(scope="class")
    def outcome(self):
        replica_set = make_set(3)
        result = replica_set.run(poisson(make_jobs(9, samples=12, gbs=4)))
        return result

    def test_records_partition_across_replicas(self, outcome):
        per_replica_ids = [set(r.records) for r in outcome.replicas]
        merged = set()
        for ids in per_replica_ids:
            assert merged.isdisjoint(ids)
            merged |= ids
        assert merged == set(outcome.records)

    def test_token_and_microbatch_totals_are_sums(self, outcome):
        assert outcome.total_tokens == sum(
            r.total_tokens for r in outcome.replicas
        )
        assert outcome.total_microbatches == sum(
            r.total_microbatches for r in outcome.replicas
        )
        assert outcome.noop_microbatches == sum(
            r.noop_microbatches for r in outcome.replicas
        )

    def test_makespan_is_the_slowest_replica(self, outcome):
        assert outcome.makespan == max(r.makespan for r in outcome.replicas)

    def test_utilization_is_makespan_weighted(self, outcome):
        weighted = sum(
            r.utilization * r.makespan for r in outcome.replicas
        )
        total = sum(r.makespan for r in outcome.replicas)
        assert outcome.utilization() == pytest.approx(weighted / total)

    def test_mean_jct_is_count_weighted(self, outcome):
        total, count = 0.0, 0
        for replica in outcome.replicas:
            times = [
                r.completion_time
                for r in replica.records.values()
                if r.completion_time is not None
            ]
            total += sum(times)
            count += len(times)
        assert outcome.mean_completion_time() == pytest.approx(total / count)

    def test_mean_queueing_delay_is_count_weighted(self, outcome):
        delays = [
            r.queueing_delay
            for replica in outcome.replicas
            for r in replica.records.values()
            if r.queueing_delay is not None
        ]
        assert outcome.mean_queueing_delay() == pytest.approx(
            sum(delays) / len(delays)
        )

    def test_throughput_uses_fleet_totals(self, outcome):
        finished = sum(
            1 for r in outcome.records.values() if r.finish_time is not None
        )
        assert outcome.jobs_per_time() == pytest.approx(
            finished / outcome.makespan
        )
        assert outcome.tokens_per_time() == pytest.approx(
            outcome.total_tokens / outcome.makespan
        )


class TestParkedLoadAccounting:
    """Regression: a parked (preempted) job's remaining work stays on the
    replica's load views -- routing and rebalancing must never treat a
    parked-heavy replica as idle."""

    @staticmethod
    def park_a_job():
        from repro.serve import CostEstimator, PriorityOrdering

        scheduler = SchedulerConfig(capacity=8192, num_stages=NUM_STAGES,
                                    use_milp=False)
        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=scheduler,
                window_batches=1,
                admission=SlotAdmission(1),
                ordering=PriorityOrdering(),  # preemptive by default
                estimator=CostEstimator.for_scheduler(COST, scheduler),
            ),
        )
        replica_set = ReplicaSet(
            [StreamingSimExecutor(COST, NUM_STAGES) for _ in range(2)],
            config,
        )
        victim, bully = make_jobs(2, samples=32)
        replica = replica_set.replicas[0]
        replica.start([])
        replica_set.replicas[1].start([])
        replica.offer(ServeJob(job=victim, arrival_time=0.0, priority=0))
        replica.offer(ServeJob(job=bully, arrival_time=0.01, priority=5))
        while replica.num_parked == 0:
            assert replica.step(), "victim never got preempted"
        return replica_set

    def test_parked_work_counts_in_views(self):
        replica_set = self.park_a_job()
        view = views(replica_set)[0]
        replica = replica_set.replicas[0]
        assert replica.num_parked == 1
        # The parked job's remaining batches are owed here...
        parked_remaining = next(iter(replica._parked.values()))
        owed = (parked_remaining.serve_job.job.num_global_batches()
                - parked_remaining.completed)
        assert owed > 0
        active_and_pending = sum(
            j.serve_job.job.num_global_batches() - j.completed
            for j in [*replica._active.values(), *replica._pending]
        )
        assert view.outstanding_batches == active_and_pending + owed
        # ...and in the seconds-valued load the estimator prices.
        assert view.expected_remaining_time is not None
        lower_bound = replica.config.estimator.job_seconds(
            parked_remaining.serve_job.job, owed
        )
        assert view.expected_remaining_time >= lower_bound
        # The idle replica really does look idle by comparison.
        other = views(replica_set)[1]
        assert other.outstanding_batches == 0
        assert other.expected_remaining_time == 0.0

    def test_cost_aware_routing_avoids_parked_heavy_replica(self):
        from repro.serve import CostAwareRouting

        replica_set = self.park_a_job()
        job = ServeJob(job=make_jobs(3, samples=8)[2], arrival_time=1.0)
        choice = CostAwareRouting().choose(job, views(replica_set))
        assert choice == 1


class TestRoutingColumns:
    """The fleet hands the router its columns only when they are priced.

    Every replica shares one orchestrator config, so the columns carry
    expected seconds on every row or on none; an unpriced fleet routes
    from its views alone.
    """

    def routed_arrays(self, priced, num_replicas=3):
        from repro.serve import CostEstimator

        scheduler = SchedulerConfig(capacity=8192, num_stages=NUM_STAGES,
                                    use_milp=False)
        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=scheduler,
                window_batches=1,
                admission=SlotAdmission(4),
                estimator=(CostEstimator.for_scheduler(COST, scheduler)
                           if priced else None),
            ),
        )
        replica_set = ReplicaSet(
            [StreamingSimExecutor(COST, NUM_STAGES)
             for _ in range(num_replicas)],
            config,
        )
        seen = []
        route = replica_set.router.route

        def recording_route(job, replicas, arrays=None):
            seen.append(arrays)
            return route(job, replicas, arrays)

        replica_set.router.route = recording_route
        result = replica_set.run(poisson(make_jobs(5)))
        assert result.violations == 0
        assert len(seen) == 5
        return seen

    def test_unpriced_fleet_routes_from_views(self):
        assert self.routed_arrays(priced=False) == [None] * 5

    def test_priced_fleet_routes_from_every_column(self):
        for arrays in self.routed_arrays(priced=True):
            assert arrays is not None
            assert arrays.indices.tolist() == [0, 1, 2]
            assert len(arrays.backlogs) == len(arrays.num_active) == 3
