"""End-to-end tests for the multi-LoRA scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.errors import ScheduleError
from repro.scheduler import (
    AdapterJob,
    JobWindow,
    MultiLoRAScheduler,
    SchedulerConfig,
    dependency_gap,
    find_violations,
)
from tests.helpers import batch_order


def make_jobs(num_adapters=4, samples=32, gbs=8, datasets=None, seed=1):
    datasets = datasets or ["xsum", "cnn_dailymail", "wikisum", "mixed"]
    return [
        AdapterJob(a, synthetic_dataset(a, datasets[a % len(datasets)],
                                        samples, seed=seed), gbs)
        for a in range(num_adapters)
    ]


def fast_config(**overrides):
    defaults = dict(capacity=8192, padding_multiple=64, num_stages=4,
                    use_milp=False)
    defaults.update(overrides)
    return SchedulerConfig(**defaults)


class TestConfigValidation:
    def test_capacity_multiple_of_padding(self):
        with pytest.raises(ScheduleError):
            SchedulerConfig(capacity=1000, padding_multiple=64)

    @pytest.mark.parametrize("overrides", [
        dict(num_stages=0),
        dict(num_stages=-1),
        dict(padding_multiple=0),
        dict(padding_multiple=-64),
        dict(padding_multiple=48),
        dict(max_workers=-1),
    ])
    def test_out_of_range_knobs_rejected(self, overrides):
        with pytest.raises(ScheduleError):
            SchedulerConfig(capacity=8192, **overrides)

    def test_auto_group_size(self):
        cfg = SchedulerConfig(capacity=8192)
        assert cfg.resolved_group_size(1) == 1
        assert cfg.resolved_group_size(2) == 1
        assert cfg.resolved_group_size(3) == 1
        assert cfg.resolved_group_size(4) == 2
        assert cfg.resolved_group_size(8) == 4

    def test_explicit_group_size_wins(self):
        cfg = SchedulerConfig(capacity=8192, group_size=3)
        assert cfg.resolved_group_size(8) == 3

    def test_duplicate_jobs_rejected(self):
        jobs = make_jobs(2)
        dup = [jobs[0], jobs[0]]
        with pytest.raises(ScheduleError):
            MultiLoRAScheduler(dup, fast_config())


class TestScheduleInvariants:
    @pytest.fixture(scope="class")
    def schedule(self):
        jobs = make_jobs()
        return jobs, MultiLoRAScheduler(jobs, fast_config()).schedule()

    def test_every_sample_scheduled_exactly_once(self, schedule):
        jobs, sched = schedule
        for job in jobs:
            seen = sorted(
                a.sample.index
                for mb in sched.microbatches
                for a in mb.assignments
                if a.adapter_id == job.adapter_id
            )
            assert seen == list(range(len(job.dataset)))

    def test_capacity_respected(self, schedule):
        _, sched = schedule
        for mb in sched.microbatches:
            assert mb.padded_tokens <= 8192

    def test_bubble_lemma_holds(self, schedule):
        _, sched = schedule
        assert find_violations(sched.microbatches, 4) == []

    def test_global_batch_order_preserved_per_adapter(self, schedule):
        jobs, sched = schedule
        for job in jobs:
            batches = batch_order(sched.microbatches, job.adapter_id)
            assert batches == sorted(batches)

    def test_samples_carry_correct_batch_index(self, schedule):
        jobs, sched = schedule
        for job in jobs:
            gbs = job.global_batch_size
            for mb in sched.microbatches:
                for a in mb.assignments:
                    if a.adapter_id == job.adapter_id:
                        assert a.global_batch == a.sample.index // gbs

    def test_stats_populated(self, schedule):
        _, sched = schedule
        stats = sched.stats
        assert stats["groups"] == 2.0
        assert stats["packing_tasks"] > 0
        assert stats["microbatches"] == len(sched)
        assert stats["tuning_seconds"] > 0


class TestMILPPath:
    def test_milp_selected_for_some_batches(self):
        jobs = make_jobs(samples=16, gbs=8)
        sched = MultiLoRAScheduler(
            jobs, fast_config(use_milp=True, capacity=4096)
        ).schedule()
        assert sched.stats["milp_selected_frac"] >= 0.0
        assert find_violations(sched.microbatches, 4) == []

    def test_milp_never_uses_more_microbatches_than_greedy(self):
        jobs = make_jobs(samples=16, gbs=8)
        greedy = MultiLoRAScheduler(jobs, fast_config(capacity=4096,
                                                      use_merge=False)).schedule()
        milp = MultiLoRAScheduler(
            jobs, fast_config(use_milp=True, capacity=4096,
                              use_merge=False)
        ).schedule()
        assert len(milp) <= len(greedy)


class TestParallelPacking:
    def test_multiprocessing_matches_inline(self):
        jobs = make_jobs(samples=16, gbs=8)
        inline = MultiLoRAScheduler(jobs, fast_config()).schedule()
        parallel = MultiLoRAScheduler(jobs, fast_config(max_workers=2)).schedule()
        assert len(inline) == len(parallel)
        for a, b in zip(inline.microbatches, parallel.microbatches):
            key = lambda mb: sorted(
                (x.adapter_id, x.sample.index) for x in mb.assignments
            )
            assert key(a) == key(b)


def microbatch_stream_key(schedule):
    """The schedule's observable stream: exact assignments in order."""
    return [
        [
            (a.adapter_id, a.sample.index, a.global_batch)
            for a in mb.assignments
        ]
        for mb in schedule.microbatches
    ]


def comparable_stats(schedule):
    return {k: v for k, v in schedule.stats.items() if k != "tuning_seconds"}


class TestDeterminism:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_same_jobs_same_config_same_stream(self, workers):
        config = fast_config(max_workers=workers)
        first = MultiLoRAScheduler(make_jobs(samples=16, gbs=8),
                                   config).schedule()
        second = MultiLoRAScheduler(make_jobs(samples=16, gbs=8),
                                    config).schedule()
        assert microbatch_stream_key(first) == microbatch_stream_key(second)
        assert comparable_stats(first) == comparable_stats(second)

    def test_workers_do_not_change_the_stream(self):
        inline = MultiLoRAScheduler(
            make_jobs(samples=16, gbs=8), fast_config(max_workers=0)
        ).schedule()
        parallel = MultiLoRAScheduler(
            make_jobs(samples=16, gbs=8), fast_config(max_workers=3)
        ).schedule()
        assert microbatch_stream_key(inline) == microbatch_stream_key(parallel)
        assert comparable_stats(inline) == comparable_stats(parallel)

    def test_deterministic_with_milp_and_merge(self):
        config = fast_config(use_milp=True)
        runs = [
            MultiLoRAScheduler(make_jobs(samples=12, gbs=6), config).schedule()
            for _ in range(2)
        ]
        assert microbatch_stream_key(runs[0]) == microbatch_stream_key(runs[1])
        assert comparable_stats(runs[0]) == comparable_stats(runs[1])


class TestTwoPhaseAPI:
    def test_plan_then_assemble_equals_schedule(self):
        scheduler = MultiLoRAScheduler(make_jobs(samples=16, gbs=8),
                                       fast_config())
        phased = scheduler.assemble(scheduler.plan_step())
        direct = MultiLoRAScheduler(make_jobs(samples=16, gbs=8),
                                    fast_config()).schedule()
        assert microbatch_stream_key(phased) == microbatch_stream_key(direct)
        assert comparable_stats(phased) == comparable_stats(direct)

    def test_explicit_groups_are_respected(self):
        jobs = make_jobs(4, samples=16, gbs=8)
        scheduler = MultiLoRAScheduler(jobs, fast_config())
        groups = [[jobs[0], jobs[3]], [jobs[1], jobs[2]]]
        plan = scheduler.plan_step(groups=groups)
        assert plan.groups == groups
        schedule = scheduler.assemble(plan)
        assert schedule.stats["groups"] == 2.0
        assert find_violations(schedule.microbatches, 4) == []

    def test_groups_must_cover_all_jobs(self):
        jobs = make_jobs(4, samples=16, gbs=8)
        scheduler = MultiLoRAScheduler(jobs, fast_config())
        with pytest.raises(ScheduleError, match="groups cover"):
            scheduler.plan_step(groups=[[jobs[0], jobs[1]]])  # 2 and 3 missing
        with pytest.raises(ScheduleError, match="groups cover"):
            scheduler.plan_step(groups=[[jobs[0], jobs[1]],
                                        [jobs[2], jobs[3], jobs[0]]])

    def test_batch_offset_shifts_global_batch_labels(self):
        jobs = make_jobs(2, samples=8, gbs=4)
        offset_jobs = [
            AdapterJob(j.adapter_id, j.dataset, j.global_batch_size,
                       batch_offset=5)
            for j in jobs
        ]
        schedule = MultiLoRAScheduler(offset_jobs, fast_config()).schedule()
        labels = {
            a.global_batch
            for mb in schedule.microbatches
            for a in mb.assignments
        }
        assert labels == {5, 6}
        # Batch indices still map to sample positions within the window.
        for job in offset_jobs:
            for mb in schedule.microbatches:
                for a in mb.assignments:
                    if a.adapter_id == job.adapter_id:
                        expected = 5 + a.sample.index // job.global_batch_size
                        assert a.global_batch == expected


class TestWindows:
    def windows(self, jobs, first, last):
        """Global batches ``[first, last)`` of every job, as slices."""
        windows = []
        for job in jobs:
            gbs = job.global_batch_size
            samples = job.samples[first * gbs : last * gbs]
            windows.append(JobWindow(job.adapter_id, first, gbs, samples))
        return windows

    def test_windows_schedule_like_rebuilt_offset_jobs(self):
        jobs = make_jobs(2, samples=24, gbs=4, datasets=["xsum"])
        rebuilt = [
            AdapterJob(
                job.adapter_id,
                FinetuneDataset(job.adapter_id, job.samples[4:16]),
                job.global_batch_size,
                batch_offset=1,
            )
            for job in jobs
        ]
        config = fast_config(capacity=2048)
        sliced = MultiLoRAScheduler(self.windows(jobs, 1, 4), config).schedule()
        whole = MultiLoRAScheduler(rebuilt, config).schedule()
        assert microbatch_stream_key(sliced) == microbatch_stream_key(whole)
        assert comparable_stats(sliced) == comparable_stats(whole)
        assert sliced.stats["noops_inserted"] > 0  # a multi-step plan is fixed

    @pytest.mark.parametrize("num_jobs", [1, 3])
    def test_one_step_plan_assembles_to_its_packed_regions(self, num_jobs):
        # One batch per window: one region per group, no next region to
        # merge from, one batch label per adapter -- assemble emits the
        # packed microbatches themselves, in group order, and nothing else.
        jobs = make_jobs(num_jobs, samples=16, gbs=8, datasets=["xsum"])
        scheduler = MultiLoRAScheduler(
            self.windows(jobs, 1, 2), fast_config(capacity=1024)
        )
        plan = scheduler.plan_step()
        packed = [
            mb for group in range(len(plan.groups)) for mb in plan.packed[(group, 0)]
        ]
        assert len(packed) > num_jobs  # several bins: a merge would be possible
        schedule = scheduler.assemble(plan)
        assert [id(mb) for mb in schedule.microbatches] == [id(mb) for mb in packed]
        assert schedule.stats["merges"] == 0
        assert schedule.stats["noops_inserted"] == 0

    def test_a_lone_job_is_its_own_group(self):
        window = self.windows(make_jobs(1), 0, 2)
        plan = MultiLoRAScheduler(window, fast_config()).plan_step()
        assert plan.groups == [window]

    def test_window_mean_length_matches_its_dataset(self):
        job = make_jobs(1, samples=24)[0]
        (window,) = self.windows([job], 1, 3)
        dataset = FinetuneDataset(job.adapter_id, list(window.samples))
        assert window.mean_length() == dataset.mean_length()
        assert window.num_global_batches() == 2


class TestSingleJob:
    def test_single_adapter_gets_noops(self):
        # With one adapter there is no other group to fill the dependency
        # gap, so no-ops appear -- the Figure 20 "1 adapter" scenario.
        jobs = make_jobs(1, samples=16, gbs=4, datasets=["cnn_dailymail"])
        sched = MultiLoRAScheduler(jobs, fast_config(capacity=2048)).schedule()
        assert sched.stats["noops_inserted"] > 0
        assert find_violations(sched.microbatches, 4) == []


class TestPropertyBased:
    @given(
        num_adapters=st.integers(1, 5),
        gbs=st.integers(2, 8),
        samples=st.integers(4, 20),
        stages=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedule_invariants_hold_for_random_workloads(
        self, num_adapters, gbs, samples, stages, seed
    ):
        jobs = make_jobs(num_adapters, samples=samples, gbs=gbs, seed=seed)
        config = SchedulerConfig(capacity=8192, num_stages=stages,
                                 use_milp=False)
        sched = MultiLoRAScheduler(jobs, config).schedule()
        assert find_violations(sched.microbatches, stages) == []
        for job in jobs:
            seen = sorted(
                a.sample.index
                for mb in sched.microbatches
                for a in mb.assignments
                if a.adapter_id == job.adapter_id
            )
            assert seen == list(range(samples))
            batches = batch_order(sched.microbatches, job.adapter_id)
            assert batches == sorted(batches)
        assert all(mb.padded_tokens <= 8192 for mb in sched.microbatches)
