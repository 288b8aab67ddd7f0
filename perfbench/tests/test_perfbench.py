"""The benchmark's own tests: tiny smoke runs and broken-output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_benchmark_json_names_the_metrics_the_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec[0] for name, spec in tracing.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_run_passes_every_check(name):
    summary = run.measure(name, seed=3, seconds=0, size="tiny").summary()
    assert summary["correct"]
    assert summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in summary["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_run_keeps_the_fingerprint(name):
    result = run.measure(name, seed=3, seconds=0, trace=True, size="tiny")
    # A traced repeat whose fingerprint differs from the untraced one
    # is a failure of its own.
    assert result.failures == []
    assert set(result.summary()["metrics"]) == set(tracing.PER_LAYER)


def test_tracer_finds_every_target_and_restores_the_originals():
    from repro.serve import orchestrator, router

    originals = (router.TenantRouter.route, orchestrator.policy_keys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert router.TenantRouter.route is not originals[0]
        assert orchestrator.policy_keys is not originals[1]
    finally:
        tracer.uninstall()
    assert (router.TenantRouter.route, orchestrator.policy_keys) == originals


def test_traced_fleet_still_routes_through_choose_arrays():
    tracer = tracing.Tracer()
    outcome, _, failures = run._repeat(
        workloads.WORKLOADS["fleet-512"], 3, "tiny", tracer
    )
    assert failures == []
    assert tracer.counts["router.array_calls"] == outcome.items


def test_a_dropped_job_fails_the_fleet_check():
    workload = workloads.WORKLOADS["fleet-512"]
    state = workload.setup(3, "tiny")
    outcome = workload.run(state)
    assert workload.check(state, outcome) == []
    del outcome.result.records[next(iter(outcome.result.records))]
    assert workload.check(state, outcome)


def test_a_bubble_lemma_violation_fails_the_offline_check():
    workload = workloads.WORKLOADS["offline-milp"]
    state = workload.setup(3, "tiny")
    outcome = workload.run(state)
    assert workload.check(state, outcome) == []
    stream = outcome.result[0].microbatches
    # Pull an adapter's first batch-1 microbatch right behind the end of
    # its batch 0, closer than the bubble lemma allows.
    later = next(
        i
        for i, mb in enumerate(stream)
        if any(a.global_batch == 1 for a in mb.assignments)
    )
    adapter = next(
        a.adapter_id for a in stream[later].assignments if a.global_batch == 1
    )
    last = max(
        i
        for i, mb in enumerate(stream)
        for a in mb.assignments
        if a.adapter_id == adapter and a.global_batch == 0
    )
    stream.insert(last + 1, stream.pop(later))
    assert any("bubble-lemma" in f for f in workload.check(state, outcome))


def test_the_command_refuses_to_run_without_the_program(capsys):
    assert run.main(
        ["--workload", "fleet-512", "--seed", "1", "--seconds", "1"],
        root=Path(__file__).resolve().parent / "no-checkout-here",
    ) == 2
    assert "{" not in capsys.readouterr().out
