"""The benchmark's one command.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-512 --seed 3 --seconds 20 --trace 0

It builds the workload's inputs from ``--seed`` (``INPUTS_PER_SEED`` of
them), repeats the workload on each in turn for about ``--seconds`` of
wall time (at least ``MIN_ROUNDS`` rounds), checks every repeat's
outputs and outcome fingerprint, prints a report
and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics over repeats with tracing
off; their timings are scaled to a reference machine speed by a speed
probe interleaved with the work (see ``perfbench/speed.py``).  ``--trace 1``
alternates untraced and traced repeats and
reports the per-layer metrics of ``perfbench/tracing.py``.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline-milp", "fleet-512", "gateway-elastic")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "us_per_item": "us",
    "sim_tokens_per_s": "tok/s",
    "pack_efficiency": "ratio",
    "goodput_frac": "ratio",
    "peak_rss_mb": "MB",
}
#: Inputs a seed stands for: seed ``s`` builds the workload from the
#: generator seeds ``s * INPUTS_PER_SEED + k``, ``k < INPUTS_PER_SEED``,
#: and every round runs each once.  The work per item differs by about
#: 5% from one input to the next; a run over several inputs averages
#: that out, so runs with different seeds measure the same program.
INPUTS_PER_SEED = 3
#: Rounds every run makes, however short ``--seconds`` is.  A round is
#: one untraced repeat per input, plus one traced repeat per input under
#: ``--trace 1``.  Past it, a run stops after the repeat that leaves no
#: time for another.
MIN_ROUNDS = 1
#: Set-ups timed on their own after every untraced repeat, so the
#: set-up samples spread over the whole run, not one stretch of it.
SETUPS_PER_REPEAT = 2
#: Set-ups timed per untraced run at least; a run too short for that
#: many repeats times the rest at its end.  setup_s is their 20th
#: percentile, not their median: set-up allocates much, and in the
#: host's slow stretches it slows by up to 1.7x where the speed probe
#: slows by 1.15x, so the median of a run's set-ups follows how much of
#: the run was slow.  Its lower percentiles do not (2.3 to 2.6 ms on
#: offline-milp in eight processes whose medians read 2.5 to 3.8 ms).
MIN_SETUPS = 25


@dataclass
class Result:
    """One run: its verdict, metrics and report lines."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """The result line's JSON object."""
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _repeat(workload, seed: int, size: str, tracer=None):
    """Set up, run and check one repeat.

    With a tracer, its wrappers are installed for the repeat and active
    only around ``run``; they are removed before the outputs are checked.
    """
    from perfbench.speed import clock

    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        state = workload.setup(seed, size)
        setup_s = clock() - start
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            outcome = workload.run(state)
        finally:
            if tracer is not None:
                tracer.active = False
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome, setup_s, workload.check(state, outcome)


def _setup_time(workload, seed: int, size: str) -> float:
    """Seconds of one set-up on its own; its state is dropped untimed."""
    from perfbench.speed import clock

    gc.collect()
    start = clock()
    workload.setup(seed, size)
    return clock() - start


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(
    name: str, seed: int, seconds: float, trace: bool = False, size: str = "full"
) -> Result:
    """Run one workload for about ``seconds``; see the module docstring.

    ``size="tiny"`` runs the smoke-test inputs of the benchmark's tests.
    """
    # Imported here, not at the top: these import the program, which is
    # only importable once main() has found it.
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    # Untraced runs probe the machine's speed while they measure.
    probe = None if trace else SpeedProbe()
    inputs = [seed * INPUTS_PER_SEED + k for k in range(INPUTS_PER_SEED)]
    result = Result()
    plain, traced, layers, setups = [], [], [], []
    # The fingerprint of each input's first untraced repeat.
    reference: dict[int, str] = {}
    mismatched = {"untraced": 0, "traced": 0}
    with probe or contextlib.nullcontext():
        begin = time.perf_counter()
        for steps, input_seed in enumerate(itertools.cycle(inputs), start=1):
            for active in (None, tracer) if trace else (None,):
                first_probe = len(probe.samples) if probe else 0
                outcome, setup_s, problems = _repeat(workload, input_seed, size, active)
                # Checked; keeping it would grow peak_rss_mb with the
                # number of repeats, which a faster program makes.
                outcome.result = None
                setups.append(setup_s)
                result.attempted += outcome.items
                if problems:
                    result.failed += outcome.items
                    result.failures += problems
                expected = reference.setdefault(input_seed, outcome.digest)
                if outcome.digest != expected:
                    mismatched["untraced" if active is None else "traced"] += 1
                    if not problems:
                        result.failed += outcome.items
                if active is None:
                    # The probes taken during the repeat scale its timing.
                    window = (first_probe, len(probe.samples) if probe else 0)
                    plain.append((input_seed, outcome, window))
                else:
                    traced.append(outcome)
                    layers.append(
                        (layer_metrics(active, outcome.phase_s), dict(active.self_s))
                    )
            if not trace:
                setups += [
                    _setup_time(workload, input_seed, size)
                    for _ in range(SETUPS_PER_REPEAT)
                ]
            elapsed = time.perf_counter() - begin
            if result.failures or (
                steps >= MIN_ROUNDS * len(inputs)
                and elapsed + elapsed / steps > seconds
            ):
                break
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(
                _setup_time(workload, inputs[len(setups) % len(inputs)], size)
            )

    if mismatched["untraced"]:
        result.failures.append("untraced repeats disagree on the outcome fingerprint")
    if mismatched["traced"]:
        result.failures.append("tracing changed the outcome fingerprint")

    result.lines.append(
        f"perfbench {name}: seed {seed} (inputs {inputs}), {len(plain)} untraced "
        f"and {len(traced)} traced repeat(s) of {plain[0][1].items} items, "
        f"fingerprints {' '.join(reference.values())}"
    )
    result.lines += [f"CHECK FAILED: {failure}" for failure in result.failures]
    if trace:
        _per_layer(result, [o for _, o, _ in plain], traced, layers, tracer.missing)
    else:
        _end_to_end(result, plain, setups, probe)
    return result


def _end_to_end(result: Result, plain: list, setups: list[float], probe) -> None:
    """Fill in the end-to-end metrics and the report's figures.

    ``plain`` holds (input seed, outcome, probe window) triples.
    ``us_per_item`` scales each repeat by the probes of its window, takes
    the median over each input's repeats, then the mean over the inputs,
    so every input weighs alike, however many repeats each got.
    """
    from perfbench.speed import REFERENCE_S
    from perfbench.workloads import REPORT_UNITS, percentile

    median = statistics.median
    scale = probe.scale()
    per_input: dict[int, list] = {}
    for input_seed, outcome, window in plain:
        per_input.setdefault(input_seed, []).append((outcome, probe.scale(*window)))

    def us_per_item(scaled: bool) -> float:
        return statistics.fmean(
            median(o.timed_s * 1e6 / o.items * (s if scaled else 1.0) for o, s in runs)
            for runs in per_input.values()
        )

    wall = {
        "setup_s": statistics.quantiles(setups, n=5)[0],
        "us_per_item": us_per_item(scaled=False),
    }
    plain = [outcome for _, outcome, _ in plain]
    values = {
        "setup_s": wall["setup_s"] * scale,
        "us_per_item": us_per_item(scaled=True),
        **{key: median(o.values[key] for o in plain) for key in plain[0].values},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result.metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
    counts = {
        "setup_s": f"20th percentile of n={len(setups)} setups, scaled",
        "us_per_item": f"n={len(plain)} repeats, median per input, mean over "
        f"{len(per_input)} inputs, each repeat scaled",
        "peak_rss_mb": "process peak",
    }
    result.lines.append("end-to-end metrics:")
    for key, (value, unit) in result.metrics.items():
        count = counts.get(key, f"median of n={len(plain)} repeats")
        result.lines.append(f"  {key:<22} {_fmt(value):>12} {unit:<6} {count}")
    result.lines.append(
        f"  speed probe: mean {_fmt(statistics.fmean(probe.samples) * 1e3)} ms "
        f"over n={len(probe.samples)} passes, reference {_fmt(REFERENCE_S * 1e3)} ms, "
        f"scale {_fmt(scale)}; unscaled wall: setup_s {_fmt(wall['setup_s'])} s, "
        f"us_per_item {_fmt(wall['us_per_item'])} us"
    )
    result.lines.append("workload figures:")
    for key in plain[0].report:
        value = median(o.report[key] for o in plain)
        result.lines.append(
            f"  {key:<22} {_fmt(value):>12} {REPORT_UNITS[key]:<6} "
            f"n={len(plain)} repeats"
        )
    latencies = [latency for o in plain for latency in o.latencies]
    if latencies:
        for key, q in (("admit_p50_us", 50), ("admit_p99_us", 99)):
            value = percentile(latencies, q) * 1e6
            result.lines.append(
                f"  {key:<22} {_fmt(value):>12} {'us':<6} n={len(latencies)} submits"
            )


def _per_layer(
    result: Result, plain: list, traced: list, layers: list, missing: list[str]
) -> None:
    """Fill in the per-layer metrics and the report's self-time table."""
    from perfbench.tracing import PER_LAYER

    median = statistics.median
    metrics = {key: median(m[key] for m, _ in layers) for key in layers[0][0]}
    metrics["trace.overhead_frac"] = (
        median(o.phase_s for o in traced) / median(o.phase_s for o in plain) - 1
    )
    result.metrics = {key: (metrics[key], PER_LAYER[key][0]) for key in PER_LAYER}
    result.lines.append(
        f"per-layer self time (median of {len(traced)} traced repeats; "
        f"traced wall {_fmt(metrics['trace.wall_s'])} s):"
    )
    self_times = {
        layer: median(selfs.get(layer, 0.0) for _, selfs in layers)
        for layer in layers[0][1]
    }
    for layer, self_s in sorted(self_times.items(), key=lambda kv: -kv[1]):
        if self_s:
            result.lines.append(f"  {layer:<14} {_fmt(self_s):>12} s")
    result.lines.append("per-layer metrics -> the end-to-end metric each should move:")
    for key, (unit, target, where) in PER_LAYER.items():
        result.lines.append(
            f"  {key:<31} {_fmt(metrics[key]):>12} {unit:<6} -> {target} on {where}"
        )
    if missing:
        result.lines.append(f"  not traced (absent): {', '.join(missing)}")


def main(argv: list[str] | None = None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the whole-stack benchmark."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(root), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    for line in result.lines:
        print(line)
    print(json.dumps(result.summary()))
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
