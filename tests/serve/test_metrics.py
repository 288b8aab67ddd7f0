"""Tests for per-job records and the per-class / SLO aggregates."""

import pytest

from repro.errors import ScheduleError
from repro.serve import JobRecord, OrchestratorResult, ReplicaSetResult


def record(aid, arrival=0.0, admit=None, finish=None, priority=0,
           deadline=None, preemptions=0):
    return JobRecord(
        adapter_id=aid,
        arrival_time=arrival,
        admit_time=admit,
        finish_time=finish,
        priority=priority,
        deadline=deadline,
        preemptions=preemptions,
    )


def fleet_calibration_error(fleet):
    """Lifetime-weighted mean of per-replica wave calibration error.

    Each replica's error weighted by its active span (interval when
    recorded, makespan otherwise); replicas with no usable wave pair carry
    no weight.  ``None`` when no replica recorded one.
    """
    weighted = total = 0.0
    for result, weight in zip(fleet.replicas, fleet._interval_weights()):
        error = result.mean_wave_calibration_error()
        if error is not None:
            weighted += error * weight
            total += weight
    return weighted / total if total else None


class TestJobRecordSLO:
    def test_deadline_missed_without_deadline_is_none(self):
        assert record(0, finish=5.0).deadline_missed is None

    def test_deadline_met(self):
        assert record(0, finish=5.0, deadline=6.0).deadline_missed is False

    def test_deadline_blown(self):
        assert record(0, finish=7.0, deadline=6.0).deadline_missed is True

    def test_unfinished_with_deadline_counts_as_miss(self):
        assert record(0, deadline=6.0).deadline_missed is True


class TestPerClassAggregates:
    def result(self):
        records = {
            0: record(0, arrival=0.0, admit=0.0, finish=10.0, priority=0),
            1: record(1, arrival=0.0, admit=4.0, finish=6.0, priority=1,
                      preemptions=0),
            2: record(2, arrival=2.0, admit=2.0, finish=4.0, priority=1,
                      deadline=5.0),
            3: record(3, arrival=0.0, admit=6.0, finish=20.0, priority=0,
                      deadline=8.0, preemptions=2),
        }
        return OrchestratorResult(records=records, makespan=20.0,
                                  total_tokens=100)

    def test_mean_jct_per_class(self):
        result = self.result()
        assert result.mean_completion_time(priority=1) == pytest.approx(4.0)
        assert result.mean_completion_time(priority=0) == pytest.approx(15.0)
        # The unfiltered mean is unchanged by the filter's existence.
        assert result.mean_completion_time() == pytest.approx(
            (10.0 + 6.0 + 2.0 + 20.0) / 4
        )

    def test_jct_by_class_orders_most_urgent_first(self):
        by_class = self.result().jct_by_class()
        assert list(by_class) == [1, 0]
        assert by_class[1] == pytest.approx(4.0)

    def test_queueing_per_class(self):
        result = self.result()
        assert result.mean_queueing_delay(priority=1) == pytest.approx(2.0)
        assert result.mean_queueing_delay(priority=0) == pytest.approx(3.0)

    def test_total_preemptions(self):
        records = self.result().records.values()
        assert sum(r.preemptions for r in records) == 2

    def test_deadline_miss_rate_counts_only_deadline_jobs(self):
        result = self.result()
        # Two jobs carry deadlines; job 3 (finish 20 > 8) missed.
        assert result.deadline_misses() == 1
        assert result.deadline_miss_rate() == pytest.approx(0.5)

    def test_miss_rate_without_deadlines_is_zero(self):
        result = OrchestratorResult(records={0: record(0, finish=1.0)})
        assert result.deadline_miss_rate() == 0.0


class TestReplicaSetAggregates:
    def test_preemptions_sum_over_replicas(self):
        replicas = [
            OrchestratorResult(preemptions=2, makespan=1.0),
            OrchestratorResult(preemptions=1, makespan=1.0),
        ]
        result = ReplicaSetResult(replicas=replicas)
        assert result.preemptions == 3

    def test_per_class_views_work_on_merged_records(self):
        records = {
            0: record(0, arrival=0.0, finish=4.0, priority=1),
            1: record(1, arrival=0.0, finish=8.0, priority=0),
        }
        result = ReplicaSetResult(
            replicas=[OrchestratorResult(makespan=8.0)], records=records
        )
        assert result.mean_completion_time(priority=1) == pytest.approx(4.0)
        assert result.jct_by_class() == {1: pytest.approx(4.0),
                                         0: pytest.approx(8.0)}

    def test_zero_replicas_rejected(self):
        with pytest.raises(ScheduleError, match="replica"):
            ReplicaSetResult(replicas=[])


class TestRejectionAggregates:
    def result(self):
        from repro.serve import JobOutcome  # noqa: F401 - used below

        records = {
            0: record(0, admit=0.0, finish=3.0, deadline=5.0),
            1: record(1, admit=0.0, finish=9.0, deadline=5.0),   # late
            2: record(2, deadline=5.0),                          # rejected
            3: record(3, admit=0.0, finish=1.0),                 # no deadline
        }
        records[2].rejected_time = 0.5
        return OrchestratorResult(records=records, makespan=9.0, rejected=1)

    def test_outcomes(self):
        from repro.serve import JobOutcome

        result = self.result()
        assert result.records[0].outcome is JobOutcome.FINISHED
        assert result.records[2].outcome is JobOutcome.REJECTED
        assert record(9).outcome is JobOutcome.UNFINISHED
        assert result.rejections() == 1

    def test_rejection_counts_in_strict_miss_rate_only(self):
        result = self.result()
        # Strict: 2 of 3 deadline-carrying jobs missed (late + rejected).
        assert result.deadline_miss_rate() == pytest.approx(2 / 3)
        # Served-only: 1 of 2 served deadline jobs missed.
        assert result.served_deadline_miss_rate() == pytest.approx(1 / 2)
        # Goodput: exactly one deadline job finished on time.
        assert result.deadline_goodput() == 1


class TestPackingCounters:
    def result(self):
        return OrchestratorResult(
            total_tokens=600,
            total_padded_tokens=800,
            capacity=100,
            total_microbatches=10,
            noop_microbatches=2,
        )

    def test_padding_waste(self):
        assert self.result().padding_waste() == pytest.approx(1 - 600 / 800)
        assert OrchestratorResult().padding_waste() == 0.0

    def test_bubble_rate(self):
        assert self.result().bubble_rate() == pytest.approx(0.2)
        assert OrchestratorResult().bubble_rate() == 0.0

    def test_pack_efficiency(self):
        # 600 real tokens over 8 real slots of 100-token capacity.
        assert self.result().pack_efficiency() == pytest.approx(0.75)
        assert OrchestratorResult().pack_efficiency() == 0.0
        all_noops = OrchestratorResult(
            capacity=100, total_microbatches=3, noop_microbatches=3
        )
        assert all_noops.pack_efficiency() == 0.0

    def fleet(self):
        replicas = [
            OrchestratorResult(
                total_tokens=600, total_padded_tokens=800, capacity=100,
                total_microbatches=10, noop_microbatches=2, makespan=1.0,
            ),
            OrchestratorResult(
                total_tokens=300, total_padded_tokens=1200, capacity=100,
                total_microbatches=20, noop_microbatches=5, makespan=1.0,
            ),
        ]
        return ReplicaSetResult(replicas=replicas)

    def test_fleet_padding_waste_is_the_merged_stream_identity(self):
        fleet = self.fleet()
        # Identical to recomputing on the concatenated streams: sums of
        # tokens and padded tokens, not a mean of per-replica ratios.
        assert fleet.padding_waste() == pytest.approx(1 - 900 / 2000)
        merged = OrchestratorResult(
            total_tokens=fleet.total_tokens,
            total_padded_tokens=fleet.total_padded_tokens,
        )
        assert fleet.padding_waste() == pytest.approx(merged.padding_waste())

    def test_fleet_bubble_rate_is_the_merged_stream_identity(self):
        fleet = self.fleet()
        assert fleet.bubble_rate() == pytest.approx(7 / 30)
        merged = OrchestratorResult(
            total_microbatches=fleet.total_microbatches,
            noop_microbatches=fleet.noop_microbatches,
        )
        assert fleet.bubble_rate() == pytest.approx(merged.bubble_rate())

    def test_fleet_pack_efficiency_prices_capacity_per_replica(self):
        fleet = self.fleet()
        # 900 tokens over 100 * 8 + 100 * 15 slot-capacity.
        assert fleet.pack_efficiency() == pytest.approx(900 / 2300)
        # Heterogeneous capacities change the budget, not the tokens.
        uneven = ReplicaSetResult(
            replicas=[
                OrchestratorResult(
                    total_tokens=600, capacity=200,
                    total_microbatches=10, noop_microbatches=2, makespan=1.0,
                ),
                OrchestratorResult(
                    total_tokens=300, capacity=100,
                    total_microbatches=20, noop_microbatches=5, makespan=1.0,
                ),
            ]
        )
        assert uneven.pack_efficiency() == pytest.approx(900 / 3100)

    def test_fleet_counters_zero_without_streams(self):
        fleet = ReplicaSetResult(replicas=[OrchestratorResult(makespan=1.0)])
        assert fleet.padding_waste() == 0.0
        assert fleet.bubble_rate() == 0.0
        assert fleet.pack_efficiency() == 0.0


class TestCalibrationAggregates:
    def test_ratio_and_error(self):
        result = OrchestratorResult(
            wave_estimates=[(1.0, 2.0), (3.0, 2.0)],
        )
        assert result.calibration_ratio() == pytest.approx(1.0)
        assert result.calibration_error() == pytest.approx(0.0)
        skewed = OrchestratorResult(wave_estimates=[(4.0, 2.0)])
        assert skewed.calibration_ratio() == pytest.approx(2.0)
        assert skewed.calibration_error() == pytest.approx(0.6931, rel=1e-3)

    def test_none_without_observations(self):
        empty = OrchestratorResult()
        assert empty.calibration_ratio() is None
        assert empty.calibration_error() is None

    def test_fleet_ratio_sums_over_replicas(self):
        fleet = ReplicaSetResult(
            replicas=[
                OrchestratorResult(wave_estimates=[(1.0, 1.0)], rejected=1),
                OrchestratorResult(wave_estimates=[(3.0, 3.0)], rejected=2),
            ]
        )
        assert fleet.calibration_ratio() == pytest.approx(1.0)
        assert fleet.rejected == 3


class TestIntervalWeightedAggregation:
    """Elastic fleets weight means by each replica's *active interval*;
    a mid-run joiner (or early retiree) must not be charged for time it
    was never in the fleet."""

    def elastic(self):
        # Replica 0 serves the whole [0, 300] run at 50% busy; replica 1
        # joins at t=200 (100 active seconds, busy 60 of them); replica 2
        # retires at t=100 (busy 30 of its 100 seconds).
        replicas = [
            OrchestratorResult(utilization=0.5, makespan=300.0),
            OrchestratorResult(utilization=0.2, makespan=300.0),
            OrchestratorResult(utilization=0.3, makespan=100.0),
        ]
        intervals = [(0.0, 300.0), (200.0, 300.0), (0.0, 100.0)]
        return ReplicaSetResult(replicas=replicas,
                                replica_intervals=intervals)

    def test_utilization_weights_by_active_interval(self):
        # Busy seconds: 150 + 60 + 30 = 240, over 300 + 100 + 100
        # bought seconds.
        assert self.elastic().utilization() == pytest.approx(240.0 / 500.0)

    def test_mid_run_join_and_retire_shift_the_mean(self):
        # Under legacy makespan weighting the same fleet would report
        # 240 / 700 -- the joiner billed for 300 seconds it served 100
        # of.  Recording intervals must change the answer.
        legacy = ReplicaSetResult(replicas=self.elastic().replicas)
        assert legacy.utilization() == pytest.approx(240.0 / 700.0)
        assert self.elastic().utilization() > legacy.utilization()

    def test_fixed_fleet_keeps_the_makespan_identity(self):
        replicas = [
            OrchestratorResult(utilization=0.5, makespan=10.0),
            OrchestratorResult(utilization=1.0, makespan=30.0),
        ]
        result = ReplicaSetResult(replicas=replicas)
        assert result.replica_intervals == []
        assert result.utilization() == pytest.approx(
            (0.5 * 10.0 + 1.0 * 30.0) / 40.0
        )

    def test_interval_count_must_match_replicas(self):
        with pytest.raises(ScheduleError, match="replica_intervals"):
            ReplicaSetResult(
                replicas=[OrchestratorResult(makespan=1.0)],
                replica_intervals=[(0.0, 1.0), (0.0, 1.0)],
            )

    def test_fleet_calibration_error_weights_by_interval(self):
        import math

        replicas = [
            OrchestratorResult(makespan=300.0,
                               wave_estimates=[(2.0, 1.0)]),   # error ln 2
            OrchestratorResult(makespan=300.0,
                               wave_estimates=[(1.0, 1.0)]),   # error 0
            OrchestratorResult(makespan=100.0),                # no pairs
        ]
        intervals = [(0.0, 300.0), (200.0, 300.0), (0.0, 100.0)]
        fleet = ReplicaSetResult(replicas=replicas,
                                 replica_intervals=intervals)
        # The pairless replica carries no weight; the joiner's perfect
        # waves weigh 100 seconds against the veteran's 300.
        expected = (math.log(2.0) * 300.0 + 0.0 * 100.0) / 400.0
        assert fleet_calibration_error(fleet) == pytest.approx(expected)

    def test_fleet_calibration_error_none_without_pairs(self):
        fleet = ReplicaSetResult(replicas=[OrchestratorResult(makespan=1.0)])
        assert fleet_calibration_error(fleet) is None

    def test_mean_reclaim_latency(self):
        base = dict(replicas=[OrchestratorResult(makespan=1.0)])
        assert ReplicaSetResult(**base).mean_reclaim_latency() is None
        taken = ReplicaSetResult(**base, reclaim_latencies=[0.2, 0.4])
        assert taken.mean_reclaim_latency() == pytest.approx(0.3)
