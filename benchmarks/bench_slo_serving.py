"""SLO-aware serving: ordering policies vs JCT on a heavy-tailed trace.

Beyond the paper's offline evaluation: a heavy-tailed tenant trace (one
huge job, two medium, five short -- the shorts arriving last) is served
under each ordering policy at a fixed adapter-slot budget.  FCFS makes
the shorts wait behind the heavy tenants; SRPT reorders the queue by
remaining batches; preemptive SRPT additionally evicts the heavy job
(lossless park-and-resume); mid-wave admission cuts the running wave the
moment an urgent arrival lands.  A priority/EDF scenario reports
per-class JCT and the deadline-miss rate.

The second half is the losslessness leg: on the numeric engine, a
best-effort tenant is preempted by a high-class arrival and resumed, and
its final adapter weights must be identical (atol=0) to an uninterrupted
sequential run.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_slo_serving.py --seed 13
"""

import argparse

import numpy as np

from benchmarks.common import (
    at_both_precisions,
    render_results,
    require,
    unfinished,
    write_results,
)
from repro.baselines import train_job_sequentially
from repro.core.lora import LoRAConfig
from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models import LLAMA3_8B, TINY, TinyLoRATransformer
from repro.models.layer_costs import LayerCostModel
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    DeadlineOrdering,
    FCFSOrdering,
    NumericExecutor,
    OnlineOrchestrator,
    OrchestratorConfig,
    PriorityOrdering,
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
    StreamingSimExecutor,
)

NUM_STAGES = 4
CAPACITY = 8192
SLOTS = 2
DEFAULT_SEED = 7
MODEL_SEED = 31
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]
# Heavy-tailed trace: one huge tenant, two medium, five short; the
# shorts arrive last, exactly the order FCFS is worst at.
SIZES = [96, 32, 32, 8, 8, 8, 8, 8]
ARRIVALS = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14]
#: Short tenants are the high class in the priority/deadline scenarios.
HIGH_CLASS = {3, 4, 5, 6, 7}
DEADLINES = {a: 3.0 + 0.2 * a for a in HIGH_CLASS}
#: The numeric losslessness leg's row; the table shows it as one line.
NUMERIC = "numeric-resume"


def make_workload(seed, priorities=False, deadlines=False):
    jobs = []
    for a, (size, arrival) in enumerate(zip(SIZES, ARRIVALS)):
        dataset = synthetic_dataset(a, DATASETS[a % 4], size, seed=seed)
        jobs.append(
            ServeJob(
                job=AdapterJob(a, dataset, 8),
                arrival_time=arrival,
                priority=1 if priorities and a in HIGH_CLASS else 0,
                deadline=DEADLINES.get(a) if deadlines else None,
            )
        )
    return jobs


def serve(workload, ordering, mid_wave=False):
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                                  use_milp=False),
        window_batches=2,
        admission=SlotAdmission(SLOTS),
        ordering=ordering,
        mid_wave_admission=mid_wave,
    )
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(cost, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    return row(result)


def make_numeric_tenant(rng, adapter_id, rank, num_samples, gbs, arrival,
                        priority):
    streams = [
        rng.integers(0, TINY.vocab_size, int(rng.integers(6, 16)))
        for _ in range(num_samples)
    ]
    numeric = NumericJob(
        adapter_id=adapter_id,
        lora=LoRAConfig(rank=rank, alpha=1.0, dropout=0.0,
                        adapter_id=adapter_id),
        token_streams=streams,
        global_batch_size=gbs,
    )
    dataset = FinetuneDataset(
        adapter_id,
        [Sample(adapter_id, i, len(t)) for i, t in enumerate(streams)],
    )
    return ServeJob(job=AdapterJob(adapter_id, dataset, gbs),
                    arrival_time=arrival, numeric=numeric, priority=priority)


def preemption_losslessness():
    """Preempt-and-resume on the numeric engine; compare atol=0.

    Returns the ``numeric-resume`` row: how often the long tenant lost
    its slot (``preempt``), and whether every tenant's final adapter
    weights are bit-identical to sequential solo training
    (``lossless``).
    """
    rng = np.random.default_rng(0)
    workload = [
        make_numeric_tenant(rng, 0, 2, 12, 2, arrival=0.0, priority=0),
        make_numeric_tenant(rng, 1, 3, 4, 2, arrival=1.0, priority=1),
    ]
    model = TinyLoRATransformer(TINY, np.random.default_rng(MODEL_SEED))
    engine = MultiLoRAEngine(model, exact_accumulation=True)
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=64, padding_multiple=1,
                                  num_stages=2, use_milp=False, group_size=2),
        window_batches=1,
        admission=SlotAdmission(1),
        ordering=PriorityOrdering(),
        mid_wave_admission=True,
    )
    orchestrator = OnlineOrchestrator(NumericExecutor(engine), config)
    result = orchestrator.run(workload)
    assert result.violations == 0
    exact = True
    for serve_job in workload:
        reference = TinyLoRATransformer(TINY, np.random.default_rng(MODEL_SEED))
        train_job_sequentially(reference, serve_job.numeric)
        online = model.adapter_state(serve_job.adapter_id)
        solo = reference.adapter_state(serve_job.adapter_id)
        for key in online:
            exact &= bool(np.array_equal(online[key].a, solo[key].a))
            exact &= bool(np.array_equal(online[key].b, solo[key].b))
    return {"preempt": result.preemptions, "lossless": exact}


def sweep(seed=DEFAULT_SEED):
    return {
        "fcfs": serve(make_workload(seed), FCFSOrdering()),
        "srpt": serve(make_workload(seed), SRPTOrdering()),
        "srpt-preempt": serve(
            make_workload(seed), SRPTOrdering(preemptive=True), mid_wave=True
        ),
        "priority-preempt": serve(
            make_workload(seed, priorities=True), PriorityOrdering(),
            mid_wave=True,
        ),
        "edf": serve(
            make_workload(seed, deadlines=True), DeadlineOrdering()
        ),
        "fcfs-deadlines": serve(
            make_workload(seed, deadlines=True), FCFSOrdering()
        ),
        NUMERIC: preemption_losslessness(),
    }


COLUMNS = (
    ("scenario", 17, None), ("makespan", 10, ".2f"), ("meanJCT", 9, ".3f"),
    ("jctHigh", 9, ".3f"), ("jctLow", 9, ".3f"), ("preempt", 8, None),
    ("cuts", 5, None), ("missrate", 8, ".2f"),
)
#: The numeric leg's line, rendered under the table.
NUMERIC_LINE = ("numeric preempt-and-resume: {preempt} preemption(s), "
                "weights bit-identical to sequential (atol=0): {lossless}")


def row(result):
    classes = result.jct_by_class()
    return {
        "makespan": result.makespan,
        "meanJCT": result.mean_completion_time(),
        "jctHigh": classes.get(1),
        "jctLow": classes[0],
        "preempt": result.preemptions,
        "cuts": result.wave_cuts,
        "missrate": result.deadline_miss_rate(),
        "unfinished": unfinished(result),
        "total_tokens": result.total_tokens,
    }


def report(rows, seed):
    title = (
        f"SLO-aware serving on a heavy-tailed trace ({len(SIZES)} jobs, "
        f"sizes {SIZES}, seed {seed}, {SLOTS} slots, {NUM_STAGES}-stage "
        f"pipeline, LLaMa-8B)"
    )
    write_results("slo_serving", render(title, rows), rows)


def render(title, rows):
    """The table of the simulated scenarios, then the numeric leg's line."""
    table = {name: row for name, row in rows.items() if name != NUMERIC}
    return render_results(title, COLUMNS, table) + [
        "", NUMERIC_LINE.format(**rows[NUMERIC])
    ]


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    fcfs, srpt = rows["fcfs"], rows["srpt"]
    srpt_preempt, priority = rows["srpt-preempt"], rows["priority-preempt"]
    edf, fcfs_deadlines = rows["edf"], rows["fcfs-deadlines"]
    numeric = rows[NUMERIC]
    claims = []
    # Every scenario finishes every job, losslessly spliced.
    for name, row in rows.items():
        if name != NUMERIC:
            claims += [
                (row["unfinished"] == 0,
                 f"{name} left {row['unfinished']} job(s) unfinished"),
                (row["total_tokens"] == fcfs["total_tokens"],
                 f"{name} served different work than fcfs"),
            ]
    claims += [
        # The headline SRPT claim: strictly lower mean JCT than FCFS on
        # the heavy-tailed trace, preemption lowering it further.
        (srpt["meanJCT"] < fcfs["meanJCT"],
         "SRPT no longer beats FCFS on mean JCT "
         f"({srpt['meanJCT']} vs {fcfs['meanJCT']})"),
        (srpt_preempt["meanJCT"] <= srpt["meanJCT"],
         "preemptive SRPT regressed vs plain SRPT "
         f"({srpt_preempt['meanJCT']} vs {srpt['meanJCT']})"),
        (srpt_preempt["preempt"] >= 1,
         "the preemptive scenario never preempted"),
        (srpt_preempt["cuts"] >= 1, "the preemptive scenario never cut a wave"),
        # Priority classes: the high class beats its own FCFS treatment
        # and the best-effort class within the same run.
        (priority["jctHigh"] < fcfs["meanJCT"],
         "the high class no longer beats FCFS "
         f"({priority['jctHigh']} vs {fcfs['meanJCT']})"),
        (priority["jctHigh"] < priority["jctLow"],
         "the high class no longer beats the best-effort class "
         f"({priority['jctHigh']} vs {priority['jctLow']})"),
        # EDF meets deadlines at least as often as FCFS.
        (edf["missrate"] <= fcfs_deadlines["missrate"],
         "EDF misses more deadlines than FCFS "
         f"({edf['missrate']} vs {fcfs_deadlines['missrate']})"),
        # The preempted-then-resumed numeric job is bit-exact.
        (numeric["preempt"] >= 1, "the numeric leg ran without a preemption"),
        (numeric["lossless"] is True,
         "preempt-and-resume is no longer bit-identical"),
    ]
    return [message for holds, message in claims if not holds]


def test_slo_serving(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, DEFAULT_SEED)
    require(check(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="dataset seed for the trace tenants")
    args = parser.parse_args()
    rows = sweep(args.seed)
    report(rows, args.seed)
    require(check(rows))


if __name__ == "__main__":
    main()
