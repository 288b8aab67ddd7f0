"""Offline autotuning vs every single-policy default, on a held-out trace.

The gate behind ``repro/tune``: composing policies found by searching
the config space must beat every *single-knob* configuration an
operator might reasonably default to -- otherwise the search is
ceremony.  The harness:

1. **Tune** on a mixed-deadline trace (light tenants whose deadlines
   survive sharing the pipeline, heavy tenants whose deadlines fit
   their solo service time but not the backlog in front of them) over
   a space spanning fleet size x routing x ordering x feasibility gate
   (queueing-aware or not).  The tuned pick is the first Pareto-front
   entry that dominates every default *on the tuning trace* -- model
   selection sees only training data.
2. **Hold out** a second trace with the same shape but different
   sampled lengths (next dataset seed), unseen during tuning.
3. **Gate**: the tuned config must Pareto-dominate every
   :func:`~repro.tune.space.single_policy_defaults` baseline on the
   held-out trace -- no worse on mean JCT, deadline goodput, and
   dollars, strictly better on at least one.

Determinism is part of the gate: the tuner is rerun in-process and must
render a byte-identical ``autotune_front.json`` artifact.  ``check``
holds the claims, run on every sweep and on the committed
``autotune.json`` rows and front artifact
(``scripts/check_bench_results.py``).

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_autotune.py --seed 13
"""

import argparse
import json
import math

from benchmarks.common import (
    RESULTS_DIR,
    at_both_precisions,
    render_results,
    require,
    write_results,
)
from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.errors import ScheduleError
from repro.serve import CostEstimator, ServeConfig, ServeJob
from repro.tune import (
    ObjectivePoint,
    SearchSpace,
    dominates,
    evaluate,
    front_to_json,
    single_policy_defaults,
    tune,
)

NUM_STAGES = 4
CAPACITY = 8192
DEFAULT_SEED = 7
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)
#: Tracker-free pricing helper for building deadline traces.
PRICER = CostEstimator.for_scheduler(COST, SCHED)

#: The bench's search space: 54 raw candidates over fleet size, the
#: three main routing families, the three main ordering families, and
#: the feasibility gate in both variants.  Slots and window stay at the
#: single-policy defaults so the comparison isolates the searched axes.
SPACE = SearchSpace(
    fleet_sizes=(1, 2),
    routings=("round_robin", "least_loaded", "cost_aware"),
    orderings=("fcfs", "srpt", "deadline"),
    deadline_gates=(False, True),
    queueing_aware=(False, True),
)


def mixed_deadline_trace(seed):
    """Lights that survive sharing; heavies doomed by the queue only.

    The same shape the calibration bench's admission scenario uses,
    shrunk for tuning throughput: light deadlines are 6x their solo
    service (generous enough to share with the other lights), heavy
    deadlines 1.2x solo (feasible on an idle pipeline, infeasible
    behind the lights' backlog).  A config must compose shedding with
    sensible routing/ordering to win on all three objectives at once.
    """
    jobs = []
    for a, t in [(0, 0.0), (1, 0.0), (2, 0.4), (3, 0.6)]:
        job = AdapterJob(a, synthetic_dataset(a, "xsum", 24, seed=seed), 8)
        jobs.append(
            ServeJob(job=job, arrival_time=t,
                     deadline=t + 6.0 * PRICER.job_seconds(job))
        )
    for a, t in [(4, 0.2), (5, 0.5)]:
        job = AdapterJob(a, synthetic_dataset(a, "wikisum", 24, seed=seed), 8)
        jobs.append(
            ServeJob(job=job, arrival_time=t,
                     deadline=t + 1.2 * PRICER.job_seconds(job))
        )
    return sorted(jobs, key=lambda j: (j.arrival_time, j.adapter_id))


def sweep(seed=DEFAULT_SEED):
    tuning_trace = mixed_deadline_trace(seed)
    held_out = mixed_deadline_trace(seed + 1)

    search = tune(tuning_trace, SPACE, cost=COST, scheduler=SCHED)
    artifact = front_to_json(search)
    # Determinism gate: a second full tuning run must render the same
    # artifact byte for byte (same front, same order, same floats).
    rerun = tune(tuning_trace, SPACE, cost=COST, scheduler=SCHED)
    assert front_to_json(rerun) == artifact

    # Model selection on training data only: the tuned pick is the
    # first front entry that already dominates every single-policy
    # default on the tuning trace.  The held-out comparison below is
    # the out-of-sample validation.
    training_defaults = [
        evaluate(config, tuning_trace, cost=COST, scheduler=SCHED)[0]
        for config in single_policy_defaults().values()
    ]
    winners = [
        trial
        for trial in search.front
        if all(dominates(trial.point, point) for point in training_defaults)
    ]
    assert winners, "no front entry dominates the defaults on the tuning trace"
    tuned_config = winners[0].config

    rows = {"tuned": row(*evaluate(tuned_config, held_out, cost=COST,
                                    scheduler=SCHED))}
    rows["tuned"]["label"] = tuned_config.label()
    for name, config in single_policy_defaults().items():
        rows[name] = row(*evaluate(config, held_out, cost=COST,
                                   scheduler=SCHED))
    return rows, artifact


COLUMNS = (
    ("scenario", 14, None), ("meanJCT", 9, ".3f"), ("goodput", 9, None),
    ("dollars", 11, ".6f"), ("gpusecs", 9, ".3f"), ("reject", 7, None),
    ("makespan", 9, ".3f"),
)


def row(point, run):
    return {
        "meanJCT": point.mean_jct,
        "goodput": point.goodput,
        "dollars": point.dollars,
        "gpusecs": point.gpu_seconds,
        "reject": run.rejected,
        "makespan": run.makespan,
    }


def report(rows, artifact, seed):
    front = json.loads(artifact)
    search = front["search"]
    title = (
        "Tuned config vs single-policy defaults on a held-out trace "
        f"(seed {seed}, {NUM_STAGES}-stage pipeline, LLaMa-8B; tuned = "
        f"{rows['tuned']['label']}; "
        f"searched {search['candidates']} candidates: "
        f"{search['collapsed']} collapsed, "
        f"{search['simulated']} simulated, front of {len(front['front'])})"
    )
    write_results("autotune", render_results(title, COLUMNS, rows), rows)
    (RESULTS_DIR / "autotune_front.json").write_text(artifact)


def objectives(row):
    """The objective point of a results row."""
    return ObjectivePoint(
        mean_jct=row["meanJCT"],
        goodput=row["goodput"],
        dollars=row["dollars"],
        gpu_seconds=row["gpusecs"],
    )


def check(rows, front):
    """The held-out ``rows`` and the tuner's ``front`` artifact (parsed)."""
    return (at_both_precisions(dominance_problems, rows, COLUMNS)
            + front_problems(front))


def dominance_problems(rows):
    # The headline gate: the tuned composition Pareto-dominates every
    # single-knob default on the trace it never saw -- at least as good
    # on all of (mean JCT, goodput, dollars), strictly better on >= 1.
    tuned = rows["tuned"]
    return [
        f"the tuned config no longer dominates the '{name}' default on "
        f"the held-out trace (JCT {tuned['meanJCT']} vs {row['meanJCT']}, "
        f"goodput {tuned['goodput']} vs {row['goodput']}, dollars "
        f"{tuned['dollars']} vs {row['dollars']})"
        for name, row in rows.items()
        if name != "tuned"
        and not dominates(objectives(tuned), objectives(row))
    ]


def front_problems(front):
    # The search accounting must add up, and the equivalence collapse
    # must actually be doing analytic work on this space.
    search = front["search"]
    accounted = search["collapsed"] + search["simulated"]
    claims = [
        (accounted == search["candidates"],
         "search accounting no longer adds up "
         f"({accounted} != {search['candidates']} candidates)"),
        (search["collapsed"] > 0, "the equivalence collapse did no work"),
        (len(front["front"]) > 0, "the front is empty"),
    ]
    # Every entry is a current, complete config: it round-trips through
    # ServeConfig unchanged (an artifact written before a field was
    # added fails here) and carries its own label.
    points = []
    for entry in front["front"]:
        label = entry["label"]
        try:
            config = ServeConfig.from_dict(entry["config"])
        except ScheduleError as error:
            claims.append((False, f"front entry '{label}': {error}"))
            continue
        claims += [
            (config.to_dict() == entry["config"],
             f"front entry '{label}' is stale: its config does not "
             "round-trip through ServeConfig"),
            (config.label() == label,
             f"front entry label '{label}' does not match its config "
             f"({config.label()})"),
        ]
        raw = entry["point"]
        points.append(
            ObjectivePoint(
                mean_jct=math.inf if raw["mean_jct"] is None else raw["mean_jct"],
                goodput=raw["goodput"],
                dollars=raw["dollars"],
                gpu_seconds=raw["gpu_seconds"],
            )
        )
    # Front entries are mutually non-dominated by construction; verify
    # the invariant survived serialization.
    claims += [
        (not dominates(a, b), f"the front is not non-dominated ({a} "
                              f"dominates {b})")
        for a in points
        for b in points
    ]
    return [message for holds, message in claims if not holds]


def test_autotune(benchmark):
    rows, artifact = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, artifact, DEFAULT_SEED)
    require(check(rows, json.loads(artifact)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="dataset seed for the trace tenants")
    args = parser.parse_args()
    rows, artifact = sweep(args.seed)
    report(rows, artifact, args.seed)
    require(check(rows, json.loads(artifact)))


if __name__ == "__main__":
    main()
