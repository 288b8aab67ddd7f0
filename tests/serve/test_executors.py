"""Tests for the streaming executors.

The key property: :class:`StreamingSimExecutor` fed one microbatch at a
time reproduces :func:`repro.distsim.pipeline.simulate_stream` exactly --
same makespan, same per-stage busy time -- while additionally reporting
optimizer-step completion events.
"""

import numpy as np
import pytest

from repro.core.lora import LoRAConfig
from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.distsim import simulate_stream, to_pipeline_microbatch
from repro.errors import ScheduleError, SimulationError
from repro.gpu import H100
from repro.models import TINY, TinyLoRATransformer
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import (
    AdapterJob,
    Assignment,
    Microbatch,
    MultiLoRAScheduler,
    SchedulerConfig,
)
from repro.serve import Executor, NumericExecutor, ServeJob, StreamingSimExecutor


def scheduled_stream(num_stages, num_jobs=4, samples=24, gbs=8, seed=5):
    datasets = ["xsum", "wikisum", "mixed", "cnn_dailymail"]
    jobs = [
        AdapterJob(a, synthetic_dataset(a, datasets[a % 4], samples, seed=seed),
                   gbs)
        for a in range(num_jobs)
    ]
    config = SchedulerConfig(capacity=8192, num_stages=num_stages,
                             use_milp=False)
    return jobs, MultiLoRAScheduler(jobs, config).schedule()


class TestStreamingSimExecutor:
    @pytest.mark.parametrize("num_stages", [1, 2, 4])
    def test_matches_simulate_stream_exactly(self, num_stages):
        jobs, sched = scheduled_stream(num_stages)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        reference = simulate_stream(
            [to_pipeline_microbatch(mb, cost, num_stages)
             for mb in sched.microbatches],
            num_stages,
        )
        executor = StreamingSimExecutor(cost, num_stages)
        for job in jobs:
            executor.add_job(ServeJob(job=job, arrival_time=0.0))
        events = []
        for mb in sched.microbatches:
            events.extend(executor.submit(mb))
        events.extend(executor.drain())
        result = executor.result()
        assert result.makespan == pytest.approx(reference.makespan, abs=1e-12)
        assert result.busy == pytest.approx(reference.busy, abs=1e-12)
        assert result.num_microbatches == reference.num_microbatches

    def test_step_events_cover_every_batch_in_order(self):
        jobs, sched = scheduled_stream(2)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        executor = StreamingSimExecutor(cost, 2)
        for job in jobs:
            executor.add_job(ServeJob(job=job, arrival_time=0.0))
        events = []
        for mb in sched.microbatches:
            events.extend(executor.submit(mb))
        events.extend(executor.drain())
        per_job = {}
        for event in events:
            per_job.setdefault(event.adapter_id, []).append(event)
        for job in jobs:
            batches = [e.global_batch for e in per_job[job.adapter_id]]
            assert batches == list(range(job.num_global_batches()))
            times = [e.time for e in per_job[job.adapter_id]]
            assert times == sorted(times)

    def test_bubble_violating_stream_detected(self):
        executor = StreamingSimExecutor(
            LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi"), 4
        )
        samples = [Sample(0, i, 64) for i in range(2)]
        job = AdapterJob(0, FinetuneDataset(0, samples), 1)
        executor.add_job(ServeJob(job=job, arrival_time=0.0))
        first = Microbatch(capacity=8192)
        first.add(Assignment(samples[0], 0))
        second = Microbatch(capacity=8192)
        second.add(Assignment(samples[1], 1))
        executor.submit(first)
        with pytest.raises(SimulationError, match="bubble lemma"):
            executor.submit(second)  # gap of 1 < the required 4

    def test_drain_then_resume_is_a_flush(self):
        jobs, sched = scheduled_stream(2, num_jobs=2, samples=8, gbs=4)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        executor = StreamingSimExecutor(cost, 2)
        for job in jobs:
            executor.add_job(ServeJob(job=job, arrival_time=0.0))
        half = len(sched.microbatches) // 2
        for mb in sched.microbatches[:half]:
            executor.submit(mb)
        executor.drain()
        clock_after_flush = executor.clock
        for mb in sched.microbatches[half:]:
            executor.submit(mb)
        events = executor.drain()
        assert executor.clock > clock_after_flush
        assert executor.result().num_microbatches == len(sched.microbatches)
        assert events  # the tail batches completed after the resume
        # Drained segments are pruned: per-microbatch state stays bounded.
        assert executor._mbs == {}
        assert executor._fwd_end == {}

    def test_unregistered_adapter_fails_fast(self):
        executor = StreamingSimExecutor(
            LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi"), 2
        )
        mb = Microbatch(capacity=8192)
        mb.add(Assignment(Sample(5, 0, 64), 0))
        with pytest.raises(SimulationError, match="add_job first"):
            executor.submit(mb)

    def test_advance_never_rewinds(self):
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        executor = StreamingSimExecutor(cost, 2)
        executor.advance(5.0)
        executor.advance(1.0)
        assert executor.clock == 5.0


class TestPartialDrain:
    """``drain_job``: force only one adapter's in-flight work, not all."""

    def loaded_executor(self, num_stages=4):
        jobs, sched = scheduled_stream(num_stages, num_jobs=4, samples=8,
                                       gbs=4)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        executor = StreamingSimExecutor(cost, num_stages)
        for job in jobs:
            executor.add_job(ServeJob(job=job, arrival_time=0.0))
        events = []
        for mb in sched.microbatches:
            events.extend(executor.submit(mb))
        return jobs, sched, executor, events

    def test_target_adapter_fully_stepped_afterwards(self):
        jobs, sched, executor, events = self.loaded_executor()
        target = jobs[0].adapter_id
        events.extend(executor.drain_job(target))
        stepped = [e.global_batch for e in events if e.adapter_id == target]
        assert stepped == list(range(jobs[0].num_global_batches()))

    def test_later_microbatches_stay_in_flight(self):
        # Unlike drain(), the pipeline tail past the target's last
        # microbatch keeps its backward passes pending.
        jobs, sched, executor, _ = self.loaded_executor()
        # Pick the adapter whose last microbatch comes *earliest* in the
        # stream, so some other adapter's work definitely trails it.
        last_mb = {}
        for k, mb in enumerate(sched.microbatches):
            for a in mb.assignments:
                last_mb[a.adapter_id] = k
        target = min(last_mb, key=lambda a: (last_mb[a], a))
        executor.drain_job(target)
        n = executor._submitted
        # A microbatch is still in flight until its *stage-0* backward
        # (the last of its backwards under 1F1B) has run.
        in_flight = [
            k for k in range(max(0, n - executor.num_stages + 1), n)
            if (0, k) not in executor._bwd_end
        ]
        assert in_flight, "partial drain flushed the whole pipeline"
        assert all(k > last_mb[target] for k in in_flight)

    def test_full_drain_after_partial_is_lossless(self):
        jobs, sched, executor, events = self.loaded_executor()
        events.extend(executor.drain_job(jobs[1].adapter_id))
        events.extend(executor.drain())
        per_job = {}
        for event in events:
            per_job.setdefault(event.adapter_id, []).append(event.global_batch)
        for job in jobs:
            assert per_job[job.adapter_id] == list(
                range(job.num_global_batches())
            )
        assert executor.result().num_microbatches == len(sched.microbatches)

    def test_drain_job_with_nothing_in_flight_is_a_noop(self):
        jobs, sched, executor, _ = self.loaded_executor()
        clock = executor.clock
        executor.drain()
        assert executor.drain_job(jobs[0].adapter_id) == []
        assert executor.clock > clock  # drain moved it; drain_job did not

    def test_numeric_executor_drain_job_is_empty(self):
        engine = MultiLoRAEngine(TinyLoRATransformer(TINY))
        executor = NumericExecutor(engine)
        assert executor.drain_job(0) == []

    def test_both_executors_implement_the_protocol(self):
        # drain_job is part of Executor: drain_for calls it directly.
        engine = MultiLoRAEngine(TinyLoRATransformer(TINY))
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        assert isinstance(NumericExecutor(engine), Executor)
        assert isinstance(StreamingSimExecutor(cost, 2), Executor)


class TestNumericExecutor:
    def make_serve_job(self, aid=0, n=4, gbs=2, seed=0):
        rng = np.random.default_rng(seed)
        streams = [rng.integers(0, TINY.vocab_size, 6) for _ in range(n)]
        numeric = NumericJob(
            aid, LoRAConfig(rank=2, alpha=1.0, dropout=0.0, adapter_id=aid),
            streams, gbs,
        )
        dataset = FinetuneDataset(
            aid, [Sample(aid, i, len(t)) for i, t in enumerate(streams)]
        )
        return ServeJob(job=AdapterJob(aid, dataset, gbs), arrival_time=0.0,
                        numeric=numeric)

    def test_requires_numeric_payload(self):
        engine = MultiLoRAEngine(TinyLoRATransformer(TINY))
        executor = NumericExecutor(engine)
        job = self.make_serve_job()
        bare = ServeJob(job=job.job, arrival_time=0.0)
        with pytest.raises(ScheduleError, match="numeric"):
            executor.add_job(bare)

    def test_clock_charges_padded_tokens_and_noop_capacity(self):
        engine = MultiLoRAEngine(TinyLoRATransformer(TINY))
        executor = NumericExecutor(engine)
        job = self.make_serve_job()
        executor.add_job(job)
        mb = Microbatch(capacity=64, padding_multiple=8)
        mb.add(Assignment(job.job.dataset.samples[0], 0))
        executor.submit(mb)
        assert executor.clock == mb.padded_tokens
        executor.submit(Microbatch(capacity=64, padding_multiple=8))
        assert executor.clock == mb.padded_tokens + 64

    def test_events_carry_losses_and_times(self):
        engine = MultiLoRAEngine(TinyLoRATransformer(TINY))
        executor = NumericExecutor(engine)
        job = self.make_serve_job(gbs=1)
        executor.add_job(job)
        mb = Microbatch(capacity=64, padding_multiple=1)
        mb.add(Assignment(job.job.dataset.samples[0], 0))
        events = executor.submit(mb)
        assert len(events) == 1
        assert events[0].adapter_id == 0
        assert events[0].global_batch == 0
        assert events[0].loss is not None and events[0].loss > 0
        assert events[0].time == executor.clock
        assert executor.drain() == []
