"""Figure 22: speedup breakdown of LoRAFusion's components (70B, 4 GPUs).

Paper stack, normalised to Megatron 1F1B PP = 1.00x:
  + FusedLoRA kernel only                      1.13x
  multi-LoRA zero-bubble PP (naive kernels)    1.50x
  + FusedMultiLoRA                             1.72x
  balanced scheduling without fusion           1.57x
  full LoRAFusion                              2.05x
"""

from benchmarks.common import fmt_row, h100_cluster, make_jobs, write_table
from repro.distsim import run_lorafusion, run_megatron_pp, run_mlora
from repro.models import LLAMA3_70B
from repro.planner import propose_capacity
from repro.scheduler import SchedulerConfig

PAPER = {
    "1F1B PP": 1.00,
    "1F1B PP + FusedLoRA": 1.13,
    "Multi-LoRA ZB PP": 1.50,
    "Multi-LoRA ZB PP + FusedMultiLoRA": 1.72,
    "Balanced Multi-LoRA ZB PP": 1.57,
    "Balanced + FusedMultiLoRA (full)": 2.05,
}


def sweep():
    jobs = make_jobs(["mixed"] * 4, samples=24)
    cluster = h100_cluster(4)
    report = propose_capacity(jobs, LLAMA3_70B, cluster)
    cap = report.best_capacity
    config = SchedulerConfig(capacity=cap, num_stages=4)
    rates = {
        "1F1B PP": run_megatron_pp(jobs, LLAMA3_70B, cluster,
                                   capacity=cap).tokens_per_second,
        "1F1B PP + FusedLoRA": run_megatron_pp(
            jobs, LLAMA3_70B, cluster, capacity=cap,
            strategy="fused").tokens_per_second,
        "Multi-LoRA ZB PP": run_mlora(jobs, LLAMA3_70B, cluster,
                                      capacity=cap).tokens_per_second,
        "Multi-LoRA ZB PP + FusedMultiLoRA": run_lorafusion(
            jobs, LLAMA3_70B, cluster, use_scheduler=False,
            capacity=cap).tokens_per_second,
        "Balanced Multi-LoRA ZB PP": run_lorafusion(
            jobs, LLAMA3_70B, cluster, scheduler_config=config,
            use_fused_kernels=False, capacity=cap).tokens_per_second,
        "Balanced + FusedMultiLoRA (full)": run_lorafusion(
            jobs, LLAMA3_70B, cluster, scheduler_config=config,
            capacity=cap).tokens_per_second,
    }
    return rates


def test_fig22_breakdown(benchmark):
    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = rates["1F1B PP"]
    widths = [36, 8, 10]
    lines = [
        "Figure 22 -- speedup breakdown, LLaMa-70B on 4xH100 (Mixed)",
        fmt_row(["configuration", "paper", "measured"], widths),
    ]
    measured = {}
    for name, paper in PAPER.items():
        measured[name] = rates[name] / base
        lines.append(fmt_row([name, f"{paper:.2f}x",
                              f"{measured[name]:.2f}x"], widths))
    write_table("fig22_breakdown", lines)

    # The stack must be ordered exactly as the paper's:
    assert measured["1F1B PP + FusedLoRA"] > 1.05
    assert measured["Multi-LoRA ZB PP"] > measured["1F1B PP + FusedLoRA"]
    assert (measured["Multi-LoRA ZB PP + FusedMultiLoRA"]
            > measured["Multi-LoRA ZB PP"])
    assert (measured["Balanced Multi-LoRA ZB PP"]
            > measured["Multi-LoRA ZB PP"])
    assert (measured["Balanced + FusedMultiLoRA (full)"]
            == max(measured.values()))
    assert 1.5 <= measured["Balanced + FusedMultiLoRA (full)"] <= 2.4
