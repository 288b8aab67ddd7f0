"""The paper's losslessness guarantee, verified numerically end to end.

Section 6: "The optimizations in LoRAFusion are designed to be lossless
... our adaptive scheduler rearranges samples to form balanced
microbatches, [but] it strictly preserves the order of global batches,
ensuring the sequence of gradient updates remains unchanged."

We verify this at full numeric fidelity: training N adapters *jointly*
through the scheduler + FusedMultiLoRA engine must produce, for every
adapter, the same per-batch losses and the same final parameters as
training that adapter *alone* -- up to float64 summation-order round-off.
"""

import numpy as np
import pytest

from repro.baselines import train_job_sequentially
from repro.core.lora import LoRAConfig
from repro.data.dataset import FinetuneDataset, Sample
from repro.errors import ScheduleError
from repro.models import TINY, TinyLoRATransformer
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import (
    AdapterJob,
    Assignment,
    Microbatch,
    MultiLoRAScheduler,
    Schedule,
    SchedulerConfig,
)

TOL = 1e-10


def make_numeric_jobs(rng, spec):
    """spec: list of (adapter_id, rank, num_samples, gbs)."""
    jobs = []
    for aid, rank, n, gbs in spec:
        streams = [
            rng.integers(0, TINY.vocab_size, int(rng.integers(4, 12)))
            for _ in range(n)
        ]
        jobs.append(
            NumericJob(
                adapter_id=aid,
                lora=LoRAConfig(rank=rank, alpha=1.0, dropout=0.0,
                                adapter_id=aid),
                token_streams=streams,
                global_batch_size=gbs,
            )
        )
    return jobs


def scheduler_jobs(jobs):
    out = []
    for job in jobs:
        samples = [
            Sample(job.adapter_id, i, len(t))
            for i, t in enumerate(job.token_streams)
        ]
        out.append(
            AdapterJob(job.adapter_id, FinetuneDataset(job.adapter_id, samples),
                       job.global_batch_size)
        )
    return out


def train_joint(jobs, num_stages=2, seed=7, **config_overrides):
    settings = dict(capacity=64, padding_multiple=1, num_stages=num_stages,
                    use_milp=False, group_size=2)
    settings.update(config_overrides)
    config = SchedulerConfig(**settings)
    schedule = MultiLoRAScheduler(scheduler_jobs(jobs), config).schedule()
    model = TinyLoRATransformer(TINY, np.random.default_rng(seed))
    engine = MultiLoRAEngine(model, jobs)
    result = engine.run(schedule)
    return model, result, schedule


def train_separate(jobs, seed=7):
    model = TinyLoRATransformer(TINY, np.random.default_rng(seed))
    results = {}
    for job in jobs:
        results[job.adapter_id] = train_job_sequentially(model, job)
    return model, results


class TestLosslessness:
    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(0)
        jobs = make_numeric_jobs(
            rng, [(0, 2, 6, 2), (1, 3, 6, 3), (2, 2, 4, 2)]
        )
        joint_model, joint_result, schedule = train_joint(jobs)
        seq_model, seq_results = train_separate(jobs)
        return jobs, joint_model, joint_result, schedule, seq_model, seq_results

    def test_final_parameters_match(self, trained):
        jobs, joint_model, _, _, seq_model, _ = trained
        for job in jobs:
            pj = joint_model.adapter_state(job.adapter_id)
            ps = seq_model.adapter_state(job.adapter_id)
            for key in pj:
                np.testing.assert_allclose(pj[key].a, ps[key].a, atol=TOL)
                np.testing.assert_allclose(pj[key].b, ps[key].b, atol=TOL)

    def test_loss_trajectories_match(self, trained):
        jobs, _, joint_result, _, _, seq_results = trained
        for job in jobs:
            joint = joint_result.losses[job.adapter_id]
            seq = seq_results[job.adapter_id].losses[job.adapter_id]
            assert len(joint) == len(seq) == job.num_global_batches()
            np.testing.assert_allclose(joint, seq, atol=TOL)

    def test_all_steps_taken(self, trained):
        jobs, _, joint_result, _, _, _ = trained
        for job in jobs:
            assert joint_result.steps[job.adapter_id] == job.num_global_batches()

    def test_schedule_actually_mixes_adapters(self, trained):
        # The equivalence is only meaningful if the joint run really packs
        # multiple adapters per microbatch somewhere.
        _, _, _, schedule, _, _ = trained
        assert any(mb.num_adapters > 1 for mb in schedule.microbatches)


class TestLosslessnessWithMilpAndMerge:
    def test_milp_and_merge_preserve_updates(self):
        rng = np.random.default_rng(3)
        jobs = make_numeric_jobs(rng, [(0, 2, 8, 2), (1, 2, 8, 4)])
        joint_model, joint_result, _ = train_joint(
            jobs, num_stages=2, use_milp=True
        )
        seq_model, seq_results = train_separate(jobs)
        for job in jobs:
            pj = joint_model.adapter_state(job.adapter_id)
            ps = seq_model.adapter_state(job.adapter_id)
            for key in pj:
                np.testing.assert_allclose(pj[key].a, ps[key].a, atol=TOL)
            np.testing.assert_allclose(
                joint_result.losses[job.adapter_id],
                seq_results[job.adapter_id].losses[job.adapter_id],
                atol=TOL,
            )


class TestEngineGuards:
    def test_update_order_violation_detected(self):
        rng = np.random.default_rng(4)
        jobs = make_numeric_jobs(rng, [(0, 2, 4, 2)])
        # Hand-build an illegal schedule: batch 1 sample before batch 0
        # completes.
        bad = Microbatch(capacity=64, padding_multiple=1)
        bad.add(Assignment(Sample(0, 2, len(jobs[0].token_streams[2])), 1))
        first = Microbatch(capacity=64, padding_multiple=1)
        first.add(Assignment(Sample(0, 0, len(jobs[0].token_streams[0])), 0))
        schedule = Schedule(microbatches=[first, bad])
        model = TinyLoRATransformer(TINY, np.random.default_rng(0))
        engine = MultiLoRAEngine(model, jobs)
        with pytest.raises(ScheduleError, match="update ordering"):
            engine.run(schedule)

    def test_unknown_adapter_in_schedule_detected(self):
        rng = np.random.default_rng(5)
        jobs = make_numeric_jobs(rng, [(0, 2, 2, 2)])
        rogue = Microbatch(capacity=64, padding_multiple=1)
        rogue.add(Assignment(Sample(9, 0, 5), 0))
        model = TinyLoRATransformer(TINY, np.random.default_rng(0))
        engine = MultiLoRAEngine(model, jobs)
        with pytest.raises(ScheduleError, match="unknown job"):
            engine.run(Schedule(microbatches=[rogue]))

    def test_microbatch_granularity_does_not_change_updates(self):
        # Gradient accumulation property: sequential training with 1 or 2
        # samples per microbatch yields the same updates.
        rng = np.random.default_rng(6)
        jobs = make_numeric_jobs(rng, [(0, 2, 4, 4)])
        m1 = TinyLoRATransformer(TINY, np.random.default_rng(1))
        train_job_sequentially(m1, jobs[0], microbatch_samples=1)
        m2 = TinyLoRATransformer(TINY, np.random.default_rng(1))
        train_job_sequentially(m2, jobs[0], microbatch_samples=2)
        p1 = m1.adapter_state(0)
        p2 = m2.adapter_state(0)
        for key in p1:
            np.testing.assert_allclose(p1[key].a, p2[key].a, atol=TOL)
