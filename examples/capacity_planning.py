"""Capacity planning, offline and online.

Part 1 mirrors the Figure 8 workflow: given four tenants' datasets, the
parallelism profiler sweeps token-capacity candidates against the
discrete-event simulator, picks the best, and the resulting plan is
compared against the Megatron-LM and mLoRA baselines.

Part 2 plans *fleet* capacity with the offline autotuner
(``docs/tuning.md``): given a deadline-carrying serve trace and an SLO,
``repro.tune.recommend`` searches the serve-config space (fleet size x
routing x ordering x admission gate), replays survivors through the
event kernel, and returns the cheapest Pareto-front config that meets
the target -- the "smallest fleet that serves this trace within SLO"
question answered from a trace prefix, before buying hardware.

Run:  python examples/capacity_planning.py
"""

from repro.data import synthetic_dataset
from repro.distsim import (
    ClusterSpec,
    run_lorafusion,
    run_megatron_fsdp,
    run_megatron_pp,
    run_mlora,
)
from repro.gpu import H100
from repro.models import LLAMA3_8B, LLAMA3_70B
from repro.models.layer_costs import LayerCostModel
from repro.planner import propose_capacity
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import CostEstimator, ServeJob
from repro.tune import SLOTarget, SearchSpace, recommend


def token_capacity() -> None:
    """Part 1: pick the fused-batch token capacity for a 70B system."""
    datasets = ["xsum", "cnn_dailymail", "wikisum", "mixed"]
    jobs = [
        AdapterJob(a, synthetic_dataset(a, name, 32, seed=7), 8)
        for a, name in enumerate(datasets)
    ]
    cluster = ClusterSpec(gpu=H100, num_gpus=4)

    report = propose_capacity(jobs, LLAMA3_70B, cluster)
    print("capacity sweep (probe prefix, greedy packing):")
    for candidate in report.candidates:
        marker = " <-- selected" if candidate.capacity == report.best_capacity else ""
        print(f"  {candidate.capacity:>6} tokens: "
              f"{candidate.tokens_per_second:7.0f} tok/s, "
              f"bubble {candidate.bubble_ratio:.1%}{marker}")

    config = SchedulerConfig(capacity=report.best_capacity, num_stages=4)
    systems = {
        "Megatron-LM FSDP": run_megatron_fsdp(jobs, LLAMA3_70B, cluster),
        "Megatron-LM PP": run_megatron_pp(jobs, LLAMA3_70B, cluster),
        "mLoRA": run_mlora(jobs, LLAMA3_70B, cluster),
        "LoRAFusion": run_lorafusion(jobs, LLAMA3_70B, cluster,
                                     scheduler_config=config,
                                     capacity=report.best_capacity),
    }
    base = systems["Megatron-LM FSDP"].tokens_per_second
    print("\nend-to-end comparison (4 adapters, LLaMa-3.1-70B, 4xH100):")
    for name, result in systems.items():
        bubble = (f", bubble {result.bubble_ratio:.1%}"
                  if result.bubble_ratio is not None else "")
        print(f"  {name:<18} {result.tokens_per_second:7.0f} tok/s "
              f"({result.tokens_per_second / base:.2f}x){bubble}")


def fleet_capacity() -> None:
    """Part 2: pick the smallest serve fleet that meets the SLO."""
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    scheduler = SchedulerConfig(capacity=8192, num_stages=4, use_milp=False)
    pricer = CostEstimator.for_scheduler(cost, scheduler)

    # A trace prefix: six tenants, deadlines at 4x their solo price.
    trace = []
    datasets = ["xsum", "cnn_dailymail", "xsum", "mixed", "xsum", "wikisum"]
    for adapter, name in enumerate(datasets):
        job = AdapterJob(adapter, synthetic_dataset(adapter, name, 16, seed=7),
                         global_batch_size=8)
        arrival = 0.2 * adapter
        trace.append(ServeJob(job=job, arrival_time=arrival,
                              deadline=arrival + 4.0 * pricer.job_seconds(job)))

    space = SearchSpace(
        fleet_sizes=(1, 2, 3),
        routings=("round_robin", "cost_aware"),
        orderings=("fcfs", "deadline"),
        deadline_gates=(False, True),
    )
    slo = SLOTarget(min_goodput=len(trace))  # every deadline met, no shedding
    plan = recommend(trace, slo, cost=cost, scheduler=scheduler, space=space)

    search = plan.report
    print(f"\nfleet planning over {search.candidates} candidates "
          f"({search.collapsed} collapsed, {search.simulated} simulated); "
          f"Pareto front:")
    for trial in search.front:
        point = trial.point
        print(f"  {trial.config.label():<38} JCT {point.mean_jct:6.3f}s  "
              f"goodput {point.goodput}  ${point.dollars:.6f}")
    verdict = "meets" if plan.feasible else "CANNOT meet"
    print(f"recommended: {plan.config.label()} "
          f"({plan.config.num_replicas} replica(s), {verdict} "
          f"goodput >= {slo.min_goodput}) at ${plan.point.dollars:.6f}")


def main() -> None:
    token_capacity()
    fleet_capacity()


if __name__ == "__main__":
    main()
