"""Tests for the tune/evaluate/recommend loop and the JSON artifact."""

import json
import math

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import ServeConfig, ServeJob
from repro.tune import (
    SearchSpace,
    SLOTarget,
    canonical,
    dominates,
    evaluate,
    front_to_json,
    recommend,
    tune,
)

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
DATASETS = ("xsum", "cnn_dailymail", "wikisum", "mixed")

SPACE = SearchSpace(
    fleet_sizes=(1, 2),
    routings=("round_robin", "cost_aware"),
    orderings=("fcfs", "srpt"),
    deadline_gates=(False, True),
)


def make_trace(num_jobs=5, spacing=0.2, deadline_every=2, seed=3):
    jobs = []
    for adapter in range(num_jobs):
        job = AdapterJob(
            adapter,
            synthetic_dataset(adapter, DATASETS[adapter % 4], 8, seed=seed),
            global_batch_size=4,
        )
        deadline = None
        if deadline_every and adapter % deadline_every == 0:
            deadline = adapter * spacing + 4.0
        jobs.append(
            ServeJob(job, arrival_time=adapter * spacing, deadline=deadline)
        )
    return jobs


@pytest.fixture(scope="module")
def trace():
    return make_trace()


@pytest.fixture(scope="module")
def report(trace):
    return tune(trace, SPACE, cost=COST, scheduler=SCHED)


class TestEvaluate:
    def test_fixed_fleet_bills_replicas_times_makespan(self, trace):
        config = ServeConfig(num_replicas=2, routing="round_robin")
        point, result = evaluate(config, trace, cost=COST, scheduler=SCHED)
        assert point.gpu_seconds == pytest.approx(2 * result.makespan)
        assert point.dollars == pytest.approx(point.gpu_seconds / 3600.0 * 6.0)
        assert point.mean_jct == pytest.approx(result.mean_completion_time())
        assert point.goodput == result.deadline_goodput()

    def test_autoscaled_run_uses_the_recorded_bill(self, trace):
        config = ServeConfig(
            num_replicas=1, autoscale_budget=30.0, routing="round_robin"
        )
        point, result = evaluate(config, trace, cost=COST, scheduler=SCHED)
        assert result.replica_intervals
        assert point.gpu_seconds == pytest.approx(result.gpu_seconds)
        assert point.dollars == pytest.approx(result.dollars_spent)

    def test_nothing_finished_ranks_worst_not_best(self):
        # Every arrival carries a hopeless deadline; the gate sheds
        # them all and the metrics layer would report 0.0 JCT.
        doomed = [
            ServeJob(job.job, job.arrival_time, deadline=job.arrival_time + 1e-6)
            for job in make_trace(num_jobs=3, deadline_every=1)
        ]
        config = ServeConfig(deadline_gate=True)
        point, result = evaluate(config, doomed, cost=COST, scheduler=SCHED)
        assert result.rejections() == 3
        assert math.isinf(point.mean_jct)

    def test_replay_is_deterministic(self, trace):
        config = ServeConfig(num_replicas=2, ordering="srpt")
        first, _ = evaluate(config, trace, cost=COST, scheduler=SCHED)
        second, _ = evaluate(config, trace, cost=COST, scheduler=SCHED)
        assert first == second


class TestTune:
    def test_rejects_empty_inputs(self, trace):
        with pytest.raises(ScheduleError, match="non-empty trace"):
            tune([], SPACE, cost=COST, scheduler=SCHED)
        # A NaN rate made every dollar NaN; a negative one ranked the
        # largest fleet cheapest.  Each entry point refuses both.
        config = ServeConfig()
        for rate in (math.nan, math.inf, -1.0):
            with pytest.raises(ScheduleError, match="rate"):
                tune(trace, SPACE, cost=COST, scheduler=SCHED, rate=rate)
            with pytest.raises(ScheduleError, match="rate"):
                evaluate(config, trace, cost=COST, scheduler=SCHED, rate=rate)
            with pytest.raises(ScheduleError, match="rate"):
                recommend(trace, SLOTarget(), cost=COST, scheduler=SCHED,
                          space=SPACE, rate=rate)

    def test_accounting_adds_up(self, report):
        assert report.candidates == 16
        assert (
            report.collapsed + report.simulated
            == report.candidates
        )
        assert report.simulated == len(report.trials)

    def test_trials_are_the_representatives_in_candidate_order(
        self, trace, report
    ):
        # Every representative is simulated once, first-seen order.
        has_deadlines = any(job.deadline is not None for job in trace)
        expected = list(dict.fromkeys(
            canonical(config, has_deadlines) for config in SPACE.candidates()
        ))
        assert [t.config for t in report.trials] == expected

    def test_front_does_not_depend_on_candidate_order(self, trace, report):
        reversed_space = SearchSpace(
            fleet_sizes=SPACE.fleet_sizes[::-1],
            routings=SPACE.routings[::-1],
            orderings=SPACE.orderings[::-1],
            deadline_gates=SPACE.deadline_gates[::-1],
        )
        again = tune(trace, reversed_space, cost=COST, scheduler=SCHED)
        assert again.front == report.front
        assert front_to_json(again) == front_to_json(report)

    def test_zero_rate_prices_every_point_free(self, trace, report):
        free = tune(trace, SPACE, cost=COST, scheduler=SCHED, rate=0.0)
        assert all(t.point.dollars == 0.0 for t in free.trials)
        # The rate prices dollars only: time axes are untouched.
        assert [t.point.gpu_seconds for t in free.trials] == [
            t.point.gpu_seconds for t in report.trials
        ]

    def test_front_is_mutually_non_dominated(self, report):
        for a in report.front:
            for b in report.front:
                assert not dominates(a.point, b.point)

    def test_front_is_cheapest_first(self, report):
        dollars = [t.point.dollars for t in report.front]
        assert dollars == sorted(dollars)

    def test_every_front_config_is_canonical_and_rebuildable(self, report):
        for trial in report.front:
            rebuilt = ServeConfig.from_dict(trial.config.to_dict())
            assert rebuilt == trial.config
            rebuilt.build(COST, SCHED)


class TestArtifact:
    def test_renders_bit_identically_across_runs(self, trace, report):
        again = tune(trace, SPACE, cost=COST, scheduler=SCHED)
        assert front_to_json(report) == front_to_json(again)

    def test_document_shape(self, report):
        doc = json.loads(front_to_json(report))
        assert doc["objectives"] == {
            "minimize": ["mean_jct", "dollars"],
            "maximize": ["goodput"],
        }
        assert doc["search"]["candidates"] == 16
        assert len(doc["front"]) == len(report.front)
        for entry, trial in zip(doc["front"], report.front):
            assert entry["label"] == trial.config.label()
            assert ServeConfig.from_dict(entry["config"]) == trial.config

    def test_search_block_is_the_collapse_accounting(self, report):
        doc = json.loads(front_to_json(report))
        assert doc["search"] == {
            "candidates": report.candidates,
            "collapsed": report.collapsed,
            "simulated": report.simulated,
        }

    def test_ends_in_exactly_one_newline(self, report):
        text = front_to_json(report)
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestSLOTarget:
    def test_unconstrained_target_is_always_met(self, report):
        assert all(SLOTarget().met_by(t.point) for t in report.front)

    def test_violation_scales_with_shortfall(self):
        slo = SLOTarget(max_mean_jct=1.0, min_goodput=4)
        from repro.tune import ObjectivePoint

        near = ObjectivePoint(mean_jct=1.1, goodput=3, dollars=1.0, gpu_seconds=1.0)
        far = ObjectivePoint(mean_jct=3.0, goodput=0, dollars=1.0, gpu_seconds=1.0)
        assert 0.0 < slo.violation(near) < slo.violation(far)
        starved = ObjectivePoint(
            mean_jct=math.inf, goodput=0, dollars=0.0, gpu_seconds=0.0
        )
        assert math.isinf(slo.violation(starved))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_mean_jct": 0.0},
            {"min_goodput": -1},
            {"max_dollars": -2.0},
            {"max_mean_jct": math.nan},
            {"max_dollars": math.nan},
        ],
    )
    def test_invalid_targets_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            SLOTarget(**kwargs)


class TestRecommend:
    def test_loose_slo_yields_cheapest_front_entry(self, trace, report):
        pick = recommend(
            trace, SLOTarget(), cost=COST, scheduler=SCHED, space=SPACE
        )
        assert pick.feasible
        assert pick.point.dollars == report.front[0].point.dollars

    def test_tight_slo_reports_infeasible_with_closest_point(self, trace):
        impossible = SLOTarget(max_dollars=1e-9)
        pick = recommend(
            trace, impossible, cost=COST, scheduler=SCHED, space=SPACE
        )
        assert not pick.feasible
        assert pick.point.dollars == min(
            t.point.dollars for t in pick.report.front
        )

    def test_goodput_slo_steers_the_pick(self, trace, report):
        best = max(t.point.goodput for t in report.front)
        pick = recommend(
            trace,
            SLOTarget(min_goodput=best),
            cost=COST,
            scheduler=SCHED,
            space=SPACE,
        )
        assert pick.feasible
        assert pick.point.goodput >= best
