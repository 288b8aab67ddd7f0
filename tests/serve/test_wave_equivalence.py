"""Property test: the wave path plans exactly what the rebuild path planned.

The orchestrator hands the scheduler each live job's window as a
:class:`~repro.scheduler.types.JobWindow` slice, skips grouping for a
lone job, and skips the merge and window-local no-op passes on one-step
plans.  :class:`tests.serve.wave_reference.ReferenceOrchestrator`
rebuilds every window as a fresh job and runs every pass on every plan.
Hypothesis drives both over random small workloads -- 1-5 jobs, window
1, 2 or unbounded, arrival or knapsack packing, 1-4 stages, merge on or
off -- and asserts the executed streams (every microbatch's samples,
batch labels, group, step and wave) and the accumulated scheduler stats
are identical.  Two pinned workloads, run in tier 1, show the oracle
reaches a merge and a search (MILP) win: random small workloads seldom
merge, since only a group of several adapters leaves a legal target.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    OnlineOrchestrator,
    OrchestratorConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)
from tests.serve.wave_reference import ReferenceOrchestrator

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")

#: Short and long samples mixed, so bins fill unevenly.
LENGTH = st.one_of(st.integers(16, 128), st.integers(400, 1000))
JOBS = st.lists(
    st.tuples(
        st.lists(LENGTH, min_size=1, max_size=12),  # sample lengths
        st.integers(1, 6),  # global batch size
        st.sampled_from([0.0, 0.1, 0.25, 0.5]),  # arrival time
    ),
    min_size=1,
    max_size=5,
)

#: ``serve`` arguments of a workload whose plans merge (four live jobs
#: in head-tail pairs, unbounded windows) ...
MERGING = (
    [
        ([998, 801, 32], 4, 0.0),
        ([480, 696, 882], 2, 0.0),
        ([684, 525, 89, 765], 2, 0.0),
        ([713, 855, 405, 110, 471], 2, 0.0),
    ],
    None, "arrival", 2, True, False, None,
)
#: ... and of one whose one-step plans take a search win.
SEARCH_WIN = ([([780, 123, 957, 37, 83], 6, 0.25)], 1, "knapsack", 2, True, True, 2)


def workload(specs):
    return [
        ServeJob(
            job=AdapterJob(
                a,
                FinetuneDataset(
                    a, [Sample(a, i, n) for i, n in enumerate(lengths)]
                ),
                gbs,
            ),
            arrival_time=arrival,
        )
        for a, (lengths, gbs, arrival) in enumerate(specs)
    ]


def serve(cls, specs, window, packing, num_stages, use_merge, use_milp, slots):
    scheduler = SchedulerConfig(
        capacity=1024,
        num_stages=num_stages,
        use_merge=use_merge,
        use_milp=use_milp,
    )
    config = OrchestratorConfig(
        scheduler=scheduler,
        window_batches=window,
        admission=SlotAdmission(slots) if slots else None,
        packing=packing,
    )
    orchestrator = cls(StreamingSimExecutor(COST, num_stages), config)
    result = orchestrator.run(workload(specs))
    stream = [
        (
            mb.group,
            mb.step,
            mb.plan_id,
            [(a.adapter_id, a.sample.index, a.global_batch) for a in mb.assignments],
        )
        for mb in orchestrator.stream
    ]
    return stream, result.stats, result.violations


def check_equal(args):
    stream, stats, violations = serve(OnlineOrchestrator, *args)
    ref_stream, ref_stats, ref_violations = serve(ReferenceOrchestrator, *args)
    assert stream == ref_stream
    for key in ("merges", "noops_inserted", "packing_tasks", "milp_selected"):
        assert stats[key] == ref_stats[key], key
    assert violations == ref_violations == 0
    return stats


@pytest.mark.parametrize(
    "args, counter",
    [(MERGING, "merges"), (SEARCH_WIN, "milp_selected")],
    ids=["merging", "search-win"],
)
def test_pinned_workloads_reach_the_pass_they_pin(args, counter):
    assert check_equal(args)[counter] > 0


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(
    specs=JOBS,
    window=st.sampled_from([1, 2, None]),
    packing=st.sampled_from(["arrival", "knapsack"]),
    num_stages=st.integers(1, 4),
    use_merge=st.booleans(),
    use_milp=st.booleans(),
    slots=st.sampled_from([None, 1, 2, 4]),
)
@example(*MERGING)
@example(*SEARCH_WIN)
def test_wave_path_matches_the_rebuild_path(
    specs, window, packing, num_stages, use_merge, use_milp, slots
):
    check_equal((specs, window, packing, num_stages, use_merge, use_milp, slots))
