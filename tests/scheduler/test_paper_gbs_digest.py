"""The scheduler's output pinned at the paper's global batch size.

The Het setting of Section 6.1 (one adapter per dataset) at global batch
size 8, the paper's own, where a packing task holds 16 samples and the
two-stage search does real work: tens to tens of thousands of nodes per
task, where the benchmark's gbs 4 takes about twenty.  The digest covers
every microbatch's ``(adapter, sample, global batch)`` triples plus the
schedule's integer counters, so it holds only integers and is the same
on every Python version.  Any change to greedy, the search, the merge
pass or no-op insertion that moves one sample changes it.
"""

import hashlib

import pytest

from tests.scheduler.het import GENERATOR_SEEDS, het_scheduler

EXPECTED = {
    3: "6deed6af266a2b06",
    4: "88077b5dd71137e7",
    5: "85a96cc93c39b3fe",
}


def schedule_digest(seed: int) -> str:
    schedule = het_scheduler(seed, global_batch_size=8).schedule()
    rows = [
        (
            mb.group,
            mb.step,
            tuple(
                (a.adapter_id, a.sample.index, a.global_batch)
                for a in mb.assignments
            ),
        )
        for mb in schedule.microbatches
    ]
    counters = tuple(
        int(schedule.stats[key])
        for key in ("milp_selected", "merges", "noops_inserted", "microbatches")
    )
    return hashlib.sha256(repr((rows, counters)).encode()).hexdigest()[:16]


@pytest.mark.slow
@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_het_schedule_at_gbs_8_is_pinned(seed):
    assert schedule_digest(seed) == EXPECTED[seed]
