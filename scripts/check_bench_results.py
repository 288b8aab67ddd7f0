"""Re-check every serving benchmark's claims against its committed results.

Each checked ``benchmarks/bench_*.py`` states its claims once, as a
``check(rows) -> list[str]`` returning one line per broken claim.  The
bench runs it on every fresh sweep; this script runs it on the rows
committed under ``benchmarks/results/<name>.json``, so a regressed claim
fails CI even if nobody re-ran the benchmark.  Autotune's ``check`` also
reads the tuner's front artifact, ``autotune_front.json``.

Usage:  python scripts/check_bench_results.py
"""

from __future__ import annotations

import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_REPO_ROOT))

from benchmarks import (  # noqa: E402
    bench_autoscale,
    bench_autotune,
    bench_calibration,
    bench_cost_routing,
    bench_fleet_kernel,
    bench_gateway,
    bench_multi_replica,
    bench_online_serving,
    bench_packing,
    bench_slo_serving,
)
from benchmarks.common import load_rows  # noqa: E402

#: Each checked bench's ``check`` and the committed results it reads.
CHECKS = (
    (bench_multi_replica.check, "multi_replica"),
    (bench_online_serving.check, "online_serving"),
    (bench_slo_serving.check, "slo_serving"),
    (bench_cost_routing.check, "cost_routing"),
    (bench_calibration.check, "calibration"),
    (bench_fleet_kernel.check, "fleet_kernel"),
    (bench_gateway.check, "gateway"),
    (bench_autoscale.check, "autoscale"),
    (bench_packing.check, "packing"),
    (bench_autotune.check, "autotune", "autotune_front"),
)


def committed_problems(load=load_rows) -> list[str]:
    """Every broken claim of every committed result, prefixed by bench.

    ``load`` reads one results file by name; a file that is missing or
    lacks a value a claim reads counts as a problem too.
    """
    problems = []
    for check, *names in CHECKS:
        try:
            found = check(*map(load, names))
        except (OSError, KeyError, TypeError, ValueError) as error:
            found = [f"unreadable results: {error!r}"]
        problems += [f"{names[0]}: {problem}" for problem in found]
    return problems


def main() -> int:
    problems = committed_problems()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} benchmark claim(s) regressed")
        return 1
    print("all committed benchmark results still hold their claims")
    return 0


if __name__ == "__main__":
    sys.exit(main())
