"""Figure 14: end-to-end throughput, 4 adapters, three models on H100s.

Paper claims (C1): LoRAFusion is 1.19-1.96x over the best Megatron-LM
baseline (1.47x average) and up to 1.46x (1.29x average) over mLoRA.
LLaMa-8B runs on one GPU (kernel gains only); Qwen-32B on two; LLaMa-70B
on four (kernel + scheduling gains).
"""


from benchmarks.common import (
    DATASET_SETTINGS,
    fmt_row,
    h100_cluster,
    make_jobs,
    write_table,
)
from repro.distsim import (
    run_lorafusion,
    run_megatron_fsdp,
    run_megatron_pp,
    run_mlora,
    run_single_gpu_sequential,
)
from repro.models import LLAMA3_70B, LLAMA3_8B, QWEN25_32B
from repro.planner import propose_capacity
from repro.scheduler import SchedulerConfig

MODELS = [(LLAMA3_8B, 1), (QWEN25_32B, 2), (LLAMA3_70B, 4)]


def run_setting(model, num_gpus, datasets):
    jobs = make_jobs(datasets)
    cluster = h100_cluster(num_gpus)
    if num_gpus == 1:
        baseline = run_single_gpu_sequential(jobs, model, cluster,
                                             strategy="torch")
        report = propose_capacity(jobs, model, cluster)
        config = SchedulerConfig(capacity=report.best_capacity, num_stages=1)
        fusion = run_lorafusion(jobs, model, cluster, scheduler_config=config,
                                capacity=report.best_capacity)
        return {"baseline": baseline.tokens_per_second,
                "lorafusion": fusion.tokens_per_second}
    report = propose_capacity(jobs, model, cluster)
    config = SchedulerConfig(capacity=report.best_capacity,
                             num_stages=num_gpus)
    return {
        "baseline": run_megatron_fsdp(jobs, model, cluster).tokens_per_second,
        "megatron-pp": run_megatron_pp(jobs, model, cluster).tokens_per_second,
        "mlora": run_mlora(jobs, model, cluster).tokens_per_second,
        "lorafusion": run_lorafusion(
            jobs, model, cluster, scheduler_config=config,
            capacity=report.best_capacity,
        ).tokens_per_second,
    }


def full_sweep():
    results = {}
    for model, num_gpus in MODELS:
        for setting, datasets in DATASET_SETTINGS.items():
            results[(model.name, setting)] = run_setting(model, num_gpus,
                                                         datasets)
    return results


def test_fig14_end_to_end(benchmark):
    results = benchmark.pedantic(full_sweep, rounds=1, iterations=1)
    widths = [14, 9, 10, 8, 8, 8]
    lines = [
        "Figure 14 -- end-to-end throughput (tokens/s), 4 adapters, H100",
        fmt_row(["model", "setting", "baseline", "pp", "mlora", "fusion"],
                widths),
    ]
    fusion_vs_best_baseline = []
    fusion_vs_mlora = []
    for (model, setting), r in results.items():
        pp = r.get("megatron-pp")
        mlora = r.get("mlora")
        lines.append(fmt_row([
            model.split("-")[0] + model[-4:], setting, f"{r['baseline']:.0f}",
            f"{pp:.0f}" if pp else "-", f"{mlora:.0f}" if mlora else "-",
            f"{r['lorafusion']:.0f}",
        ], widths))
        best = max(v for k, v in r.items()
                   if k in ("baseline", "megatron-pp"))
        fusion_vs_best_baseline.append(r["lorafusion"] / best)
        if mlora:
            fusion_vs_mlora.append(r["lorafusion"] / mlora)
    avg_vs_base = sum(fusion_vs_best_baseline) / len(fusion_vs_best_baseline)
    avg_vs_mlora = sum(fusion_vs_mlora) / len(fusion_vs_mlora)
    lines += [
        "",
        f"LoRAFusion vs best Megatron baseline: avg {avg_vs_base:.2f}x, "
        f"max {max(fusion_vs_best_baseline):.2f}x "
        "(paper: avg 1.47x, max 1.96x)",
        f"LoRAFusion vs mLoRA: avg {avg_vs_mlora:.2f}x, "
        f"max {max(fusion_vs_mlora):.2f}x (paper: avg 1.29x, max 1.46x)",
    ]
    write_table("fig14_end_to_end", lines)

    # C1 shape: LoRAFusion wins everywhere, with factors in the band.
    assert min(fusion_vs_best_baseline) > 1.05
    assert 1.2 <= avg_vs_base <= 1.9
    assert 1.05 <= avg_vs_mlora <= 1.55
