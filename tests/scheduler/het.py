"""The Het setting of Section 6.1 as offline-milp builds it, for tests.

One adapter per dataset, 512 samples each, capacity 8192, 4 pipeline
stages.  offline-milp's seed 1 stands for generator seeds 3, 4 and 5.
At 4 stages the merge pass finds no legal merge; at 1 it finds several.
"""

from __future__ import annotations

from unittest import mock

from repro.data import synthetic_dataset
from repro.scheduler import AdapterJob, MultiLoRAScheduler, SchedulerConfig

DATASETS = ("xsum", "cnn_dailymail", "wikisum", "mixed")
GENERATOR_SEEDS = (3, 4, 5)
SAMPLES_PER_ADAPTER = 512


def het_scheduler(
    seed: int, global_batch_size: int, num_stages: int = 4
) -> MultiLoRAScheduler:
    jobs = [
        AdapterJob(
            a,
            synthetic_dataset(a, name, SAMPLES_PER_ADAPTER, seed=seed),
            global_batch_size,
        )
        for a, name in enumerate(DATASETS)
    ]
    config = SchedulerConfig(capacity=8192, num_stages=num_stages)
    return MultiLoRAScheduler(jobs, config)


def captured_calls(module, name: str, seed: int, global_batch_size: int) -> list:
    """The arguments of every ``module.name`` call one ``schedule()`` makes."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(module, name, record):
        het_scheduler(seed, global_batch_size).schedule()
    return calls
