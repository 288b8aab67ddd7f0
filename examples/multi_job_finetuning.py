"""Multi-job LoRA fine-tuning, end to end and numerically exact.

Three tenants fine-tune adapters of different ranks on the same frozen
base model.  The multi-LoRA scheduler packs their samples into balanced,
dependency-safe microbatches; the engine trains them jointly through the
FusedMultiLoRA kernels.  We then retrain each adapter alone and show the
loss trajectories match exactly -- the paper's losslessness guarantee.

Run:  python examples/multi_job_finetuning.py
"""

import numpy as np

from repro.baselines import train_job_sequentially
from repro.core.lora import LoRAConfig
from repro.data.dataset import FinetuneDataset, Sample
from repro.models import TINY, TinyLoRATransformer
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import AdapterJob, MultiLoRAScheduler, SchedulerConfig


def make_job(rng, adapter_id, rank, num_samples, gbs):
    streams = [
        rng.integers(0, TINY.vocab_size, int(rng.integers(6, 16)))
        for _ in range(num_samples)
    ]
    return NumericJob(
        adapter_id=adapter_id,
        lora=LoRAConfig(rank=rank, alpha=1.0, dropout=0.0,
                        adapter_id=adapter_id),
        token_streams=streams,
        global_batch_size=gbs,
    )


def main() -> None:
    rng = np.random.default_rng(0)
    jobs = [make_job(rng, 0, 2, 8, 2), make_job(rng, 1, 4, 8, 4),
            make_job(rng, 2, 3, 6, 3)]

    scheduler_jobs = [
        AdapterJob(
            job.adapter_id,
            FinetuneDataset(job.adapter_id, [
                Sample(job.adapter_id, i, len(t))
                for i, t in enumerate(job.token_streams)
            ]),
            job.global_batch_size,
        )
        for job in jobs
    ]
    config = SchedulerConfig(capacity=64, padding_multiple=1, num_stages=2,
                             use_milp=True, group_size=2)
    schedule = MultiLoRAScheduler(scheduler_jobs, config).schedule()
    print(f"schedule: {len(schedule)} microbatches, "
          f"{schedule.stats['milp_selected']:.0f} MILP-packed steps, "
          f"{schedule.stats['noops_inserted']:.0f} no-ops")

    joint_model = TinyLoRATransformer(TINY, np.random.default_rng(42))
    engine = MultiLoRAEngine(joint_model, jobs)
    joint = engine.run(schedule)

    sequential_model = TinyLoRATransformer(TINY, np.random.default_rng(42))
    for job in jobs:
        result = train_job_sequentially(sequential_model, job)
        joint_losses = joint.losses[job.adapter_id]
        seq_losses = result.losses[job.adapter_id]
        drift = max(abs(a - b) for a, b in zip(joint_losses, seq_losses))
        print(f"adapter {job.adapter_id} (rank {job.lora.rank}): "
              f"{joint.steps[job.adapter_id]} steps, "
              f"losses {['%.3f' % l for l in joint_losses]}, "
              f"max drift vs solo training {drift:.2e}")

    params_match = all(
        np.allclose(
            joint_model.adapter_state(j.adapter_id)[key].a,
            sequential_model.adapter_state(j.adapter_id)[key].a,
            atol=1e-10,
        )
        for j in jobs
        for key in joint_model.adapter_state(j.adapter_id)
    )
    print(f"\njoint == sequential parameters: {params_match} "
          "(the paper's losslessness guarantee)")


if __name__ == "__main__":
    main()
