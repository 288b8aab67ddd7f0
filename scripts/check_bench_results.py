"""Check the committed benchmark tables still encode the perf claims.

The ``bench_*.py`` scripts assert their claims when they *run*; this
script asserts them against the **committed** tables under
``benchmarks/results/``, so a regression that sneaks into a checked-in
table (or a table regenerated by a regressed scheduler) fails CI even if
nobody re-ran the benchmark.  Checked claims:

* ``multi_replica.txt`` -- at equal offered load, 2 replicas sustain
  strictly higher job throughput than 1 (and no worse mean JCT).
* ``online_serving.txt`` -- online serving replans more than the
  offline oracle, and its makespan stays at or above 95% of the
  oracle's: the oracle is a lower bound, with 5% slack for the
  clock-alignment noise the benchmark itself tolerates.
* ``slo_serving.txt`` -- SRPT beats FCFS on mean JCT on the
  heavy-tailed trace, preemptive SRPT does no worse than SRPT with at
  least one preemption, and the numeric preempt-and-resume leg reports
  bit-identical (atol=0) weights.
* ``cost_routing.txt`` -- cost-aware routing does no worse than
  least-loaded on mean JCT on the heterogeneous trace, the
  deadline-feasibility gate sheds work and lowers the served miss rate
  below plain EDF's (at no goodput cost), the adaptive window cuts
  replans vs the static one, and every scenario's estimate-vs-actual
  calibration ratio stays within the documented tolerance.
* ``calibration.txt`` -- the feedback-corrected estimator is strictly
  tighter than the uncorrected one on the drifting trace (and inside
  the tightened corrected band), queueing-aware admission beats
  service-time-only admission on deadline goodput under overload, and
  seconds-skew rebalancing matches or beats batch-skew mean JCT on the
  heterogeneous fleet (with the drain-then-migrate leg actually paying
  drains).
* ``fleet_kernel.txt`` -- the fleet loop's wall time per event on the
  largest fleet stays within ``US_PER_EVENT_RATIO_CEILING`` x of the
  smallest fleet's (both timed in one process), and every scenario
  sustains ``FLEET_EVENTS_PER_SEC_FLOOR`` processed events per second.
* ``gateway.txt`` -- the live door sustains ``SUBMIT_RATE_FLOOR``
  wall-clock submits/second with p99 admission latency under
  ``P99_LATENCY_CEILING`` on both the steady and the 10x-burst
  scenario, zero admitted jobs are lost, the ledger conserves
  (``jobs == accepted + shed``), the burst actually sheds more
  than steady load (backpressure engages), and the long run's p99
  admission latency over its last quarter of submits stays within
  ``LATENCY_DRIFT_CEILING`` x that over its first quarter (door work
  does not grow with the release history).
* ``autoscale.txt`` -- no elastic scenario loses a job, every deadline
  miss rate stays under ``MISS_RATE_CEILING``, each elastic fleet bills
  fewer GPU-seconds than a fixed fleet held at its peak size, the
  diurnal trace both grows and shrinks, the flash crowd grows, and the
  mass spot reclaim takes exactly the noticed replica count at a mean
  JCT within ``RECLAIM_JCT_PENALTY`` x of the undisturbed baseline.
* ``packing.txt`` -- knapsack wave assembly cuts padding waste by at
  least ``WASTE_REDUCTION_FLOOR`` of the arrival-order baseline's waste
  on the heavy-tailed trace, never bubbles more, keeps mean JCT within
  ``JCT_PENALTY_CEILING`` x of the baseline, and the rerun row is
  cell-identical to the knapsack row (double-run determinism).
* ``autotune.txt`` + ``autotune_front.json`` -- the tuned config
  Pareto-dominates every single-policy default on the held-out trace
  (no worse on mean JCT, goodput, and dollars; strictly better on at
  least one, at table precision), and the committed front artifact is
  internally consistent: every entry's config round-trips through
  ``ServeConfig.from_dict``, the front is mutually non-dominated, and
  the search accounting adds up.

Usage:  python scripts/check_bench_results.py
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.bench_autoscale import (  # noqa: E402
    MISS_RATE_CEILING,
    RECLAIM_JCT_PENALTY,
    RECLAIM_NOTICE,
)
from benchmarks.bench_fleet_kernel import (  # noqa: E402
    EVENTS_PER_SEC_FLOOR as FLEET_EVENTS_PER_SEC_FLOOR,
    US_PER_EVENT_RATIO_CEILING,
)
from benchmarks.bench_gateway import (  # noqa: E402
    LATENCY_DRIFT_CEILING,
    P99_LATENCY_CEILING,
    SUBMIT_RATE_FLOOR,
)
from benchmarks.bench_packing import (  # noqa: E402
    JCT_PENALTY_CEILING,
    WASTE_REDUCTION_FLOOR,
)
from repro.errors import ScheduleError  # noqa: E402
from repro.serve.config import ServeConfig  # noqa: E402
from repro.serve.costing import (  # noqa: E402
    CALIBRATION_TOLERANCE,
    CORRECTED_CALIBRATION_TOLERANCE,
)
from repro.tune import ObjectivePoint, dominates  # noqa: E402

RESULTS_DIR = _REPO_ROOT / "benchmarks" / "results"

#: Two-or-more spaces separate fixed-width table columns.
_COLUMNS = re.compile(r"\s{2,}")


def parse_table(path: Path) -> dict[str, dict[str, str]]:
    """Rows of the first fixed-width table in ``path``, keyed by scenario.

    The header row is the one whose first column is ``scenario``; every
    following non-empty line is a data row until the first blank line.
    """
    lines = path.read_text().splitlines()
    header: list[str] | None = None
    rows: dict[str, dict[str, str]] = {}
    for line in lines:
        cells = [cell for cell in _COLUMNS.split(line.strip()) if cell]
        if header is None:
            if cells and cells[0] == "scenario":
                header = cells
            continue
        if not cells:
            break
        rows[cells[0]] = dict(zip(header[1:], cells[1:]))
    if header is None:
        raise AssertionError(f"{path.name}: no 'scenario' table header found")
    return rows


def check_multi_replica() -> list[str]:
    rows = parse_table(RESULTS_DIR / "multi_replica.txt")
    single, double = rows["least-loaded-x1"], rows["least-loaded-x2"]
    problems = []
    if not float(double["jobs/t"]) > float(single["jobs/t"]):
        problems.append(
            "multi_replica: 2 replicas no longer beat 1 on jobs/time "
            f"({double['jobs/t']} vs {single['jobs/t']})"
        )
    if not float(double["meanJCT"]) <= float(single["meanJCT"]):
        problems.append(
            "multi_replica: 2 replicas regressed mean JCT vs 1 "
            f"({double['meanJCT']} vs {single['meanJCT']})"
        )
    return problems


def check_online_serving() -> list[str]:
    rows = parse_table(RESULTS_DIR / "online_serving.txt")
    oracle, online = rows["oracle-offline"], rows["online-w2"]
    problems = []
    if not int(online["replans"]) > int(oracle["replans"]):
        problems.append(
            "online_serving: online stopped replanning incrementally "
            f"({online['replans']} vs oracle {oracle['replans']})"
        )
    if not float(online["makespan"]) >= 0.95 * float(oracle["makespan"]):
        problems.append(
            "online_serving: online makespan dropped below the oracle "
            "lower bound -- the table is inconsistent "
            f"({online['makespan']} vs {oracle['makespan']})"
        )
    return problems


def check_slo_serving() -> list[str]:
    path = RESULTS_DIR / "slo_serving.txt"
    rows = parse_table(path)
    fcfs, srpt = rows["fcfs"], rows["srpt"]
    preempt = rows["srpt-preempt"]
    problems = []
    if not float(srpt["meanJCT"]) < float(fcfs["meanJCT"]):
        problems.append(
            "slo_serving: SRPT no longer beats FCFS on mean JCT "
            f"({srpt['meanJCT']} vs {fcfs['meanJCT']})"
        )
    if not float(preempt["meanJCT"]) <= float(srpt["meanJCT"]):
        problems.append(
            "slo_serving: preemptive SRPT regressed vs plain SRPT "
            f"({preempt['meanJCT']} vs {srpt['meanJCT']})"
        )
    if not int(preempt["preempt"]) >= 1:
        problems.append("slo_serving: the preemptive scenario never preempted")
    text = path.read_text()
    match = re.search(
        r"(\d+) preemption\(s\), weights bit-identical to sequential "
        r"\(atol=0\): (\w+)",
        text,
    )
    if match is None:
        problems.append("slo_serving: losslessness line missing")
    else:
        if int(match.group(1)) < 1:
            problems.append(
                "slo_serving: numeric leg ran without a preemption"
            )
        if match.group(2) != "True":
            problems.append(
                "slo_serving: preempt-and-resume is no longer bit-identical"
            )
    return problems


def check_cost_routing() -> list[str]:
    path = RESULTS_DIR / "cost_routing.txt"
    rows = parse_table(path)
    problems = []
    least, aware = rows["least-loaded-x2"], rows["cost-aware-x2"]
    if not float(aware["meanJCT"]) <= float(least["meanJCT"]):
        problems.append(
            "cost_routing: cost-aware routing no longer matches "
            "least-loaded on mean JCT "
            f"({aware['meanJCT']} vs {least['meanJCT']})"
        )
    edf, gated = rows["edf"], rows["edf-gated"]
    if not int(gated["reject"]) >= 1:
        problems.append("cost_routing: the feasibility gate never shed a job")
    if not float(gated["servedmiss"]) < float(edf["missrate"]):
        problems.append(
            "cost_routing: gating no longer lowers the served "
            "deadline-miss rate below plain EDF "
            f"({gated['servedmiss']} vs {edf['missrate']})"
        )
    if not int(gated["goodput"]) >= int(edf["goodput"]):
        problems.append(
            "cost_routing: gating regressed deadline-goodput "
            f"({gated['goodput']} vs {edf['goodput']})"
        )
    static, adaptive = rows["static-w1"], rows["adaptive-window"]
    if not int(adaptive["replans"]) < int(static["replans"]):
        problems.append(
            "cost_routing: the adaptive window stopped saving replans "
            f"({adaptive['replans']} vs {static['replans']})"
        )
    # The documented estimator-honesty bound, imported so the gate and
    # the library cannot drift apart.
    tolerance = CALIBRATION_TOLERANCE
    for name, row in rows.items():
        ratio = float(row["calib"])
        if not 1 / tolerance <= ratio <= tolerance:
            problems.append(
                f"cost_routing: {name} calibration ratio {ratio} left "
                f"the documented [{1 / tolerance}, {tolerance}] band"
            )
    return problems


def check_calibration() -> list[str]:
    rows = parse_table(RESULTS_DIR / "calibration.txt")
    problems = []
    uncorrected, corrected = rows["uncorrected"], rows["corrected"]
    if not float(corrected["caliberr"]) < float(uncorrected["caliberr"]):
        problems.append(
            "calibration: feedback correction no longer tightens the "
            "calibration ratio on the drifting trace "
            f"({corrected['caliberr']} vs {uncorrected['caliberr']})"
        )
    ratio = float(uncorrected["calib"])
    if not 1 / CALIBRATION_TOLERANCE <= ratio <= CALIBRATION_TOLERANCE:
        problems.append(
            f"calibration: uncorrected ratio {ratio} left the documented "
            f"[{1 / CALIBRATION_TOLERANCE}, {CALIBRATION_TOLERANCE}] band"
        )
    ratio = float(corrected["calib"])
    tolerance = CORRECTED_CALIBRATION_TOLERANCE
    if not 1 / tolerance <= ratio <= tolerance:
        problems.append(
            f"calibration: corrected ratio {ratio} left the tightened "
            f"[{1 / tolerance:.3f}, {tolerance}] band"
        )
    service, queueing = rows["edf-service"], rows["edf-queueaware"]
    if not int(queueing["goodput"]) > int(service["goodput"]):
        problems.append(
            "calibration: queueing-aware admission no longer beats "
            "service-time-only admission on deadline goodput "
            f"({queueing['goodput']} vs {service['goodput']})"
        )
    if not float(queueing["smiss"]) <= float(service["smiss"]):
        problems.append(
            "calibration: queueing-aware admission regressed the served "
            f"miss rate ({queueing['smiss']} vs {service['smiss']})"
        )
    if not (int(queueing["reject"]) >= 1 and int(service["reject"]) >= 1):
        problems.append("calibration: a feasibility gate never shed a job")
    batch, seconds = rows["batch-skew"], rows["secs-skew"]
    if not float(seconds["meanJCT"]) <= 1.05 * float(batch["meanJCT"]):
        problems.append(
            "calibration: seconds-skew rebalancing no longer matches "
            "batch-skew mean JCT "
            f"({seconds['meanJCT']} vs {batch['meanJCT']})"
        )
    if not int(rows["secs-skew-drain"]["drains"]) >= 1:
        problems.append(
            "calibration: the drain-then-migrate leg never paid a drain"
        )
    return problems


def check_fleet_kernel() -> list[str]:
    rows = parse_table(RESULTS_DIR / "fleet_kernel.txt")
    problems = []
    # Per-event cost must stay flat from the smallest to the largest
    # fleet -- a ratio of two timings from one process.
    by_size = sorted(rows.values(), key=lambda row: int(row["replicas"]))
    ratio = float(by_size[-1]["us/event"]) / float(by_size[0]["us/event"])
    if not ratio <= US_PER_EVENT_RATIO_CEILING:
        problems.append(
            "fleet_kernel: us/event on the largest fleet grew "
            f"{ratio:.2f}x over the smallest (gate "
            f"{US_PER_EVENT_RATIO_CEILING}x)"
        )
    for name, row in rows.items():
        rate = float(row["events/s"])
        if not rate >= FLEET_EVENTS_PER_SEC_FLOOR:
            problems.append(
                f"fleet_kernel: {name} fell below the event-throughput "
                f"floor ({rate:.0f} vs {FLEET_EVENTS_PER_SEC_FLOOR:.0f} "
                "events/s)"
            )
    return problems


def check_gateway() -> list[str]:
    rows = parse_table(RESULTS_DIR / "gateway.txt")
    problems = []
    for name, row in rows.items():
        if not int(row["lost"]) == 0:
            problems.append(
                f"gateway: {name} lost {row['lost']} admitted job(s) -- "
                "every released submission must finish"
            )
        if not int(row["jobs"]) == int(row["accepted"]) + int(row["shed"]):
            problems.append(
                f"gateway: {name} ledger does not conserve "
                f"({row['jobs']} != {row['accepted']} + {row['shed']})"
            )
        if not float(row["submit/s"]) >= SUBMIT_RATE_FLOOR:
            problems.append(
                f"gateway: {name} fell below the submit-throughput floor "
                f"({row['submit/s']} vs {SUBMIT_RATE_FLOOR:.0f}/s)"
            )
        if not float(row["p99_ms"]) <= P99_LATENCY_CEILING * 1e3:
            problems.append(
                f"gateway: {name} p99 admission latency {row['p99_ms']} ms "
                f"left the {P99_LATENCY_CEILING * 1e3:.0f} ms ceiling"
            )
    steady, burst = rows["steady"], rows["burst-10x"]
    if not int(burst["shed"]) > int(steady["shed"]):
        problems.append(
            "gateway: the 10x burst no longer sheds more than steady "
            f"load ({burst['shed']} vs {steady['shed']}) -- backpressure "
            "stopped engaging"
        )
    drift = float(rows["long-run"]["q4/q1"])
    if not drift <= LATENCY_DRIFT_CEILING:
        problems.append(
            f"gateway: long-run p99 admission latency grew {drift:.2f}x "
            f"from the first to the last quarter of submits (ceiling "
            f"{LATENCY_DRIFT_CEILING}x) -- door work grows with history"
        )
    return problems


def check_autoscale() -> list[str]:
    rows = parse_table(RESULTS_DIR / "autoscale.txt")
    problems = []
    for name, row in rows.items():
        if not int(row["lost"]) == 0:
            problems.append(
                f"autoscale: {name} lost {row['lost']} job(s) -- "
                "elastic scaling must stay lossless"
            )
        if not float(row["missrate"]) <= MISS_RATE_CEILING:
            problems.append(
                f"autoscale: {name} deadline miss rate {row['missrate']} "
                f"left the {MISS_RATE_CEILING} ceiling"
            )
        peak = (int(row["repl"]) + int(row["joins"])) * float(row["makespan"])
        if not float(row["gpu_s"]) < peak:
            problems.append(
                f"autoscale: {name} stopped saving GPU-seconds vs a "
                f"fixed peak-size fleet ({row['gpu_s']} vs {peak:.2f})"
            )
    diurnal = rows["diurnal"]
    if not (int(diurnal["joins"]) >= 1 and int(diurnal["retires"]) >= 1):
        problems.append(
            "autoscale: the diurnal trace no longer both grows and "
            f"shrinks (joins={diurnal['joins']}, "
            f"retires={diurnal['retires']})"
        )
    if not int(rows["flash-crowd"]["joins"]) >= 1:
        problems.append(
            "autoscale: the flash crowd never grew the fleet"
        )
    reclaim, base = rows["mass-reclaim"], rows["mass-reclaim-base"]
    if not int(reclaim["reclaims"]) == RECLAIM_NOTICE.count:
        problems.append(
            "autoscale: the mass reclaim took "
            f"{reclaim['reclaims']} replica(s), notice says "
            f"{RECLAIM_NOTICE.count}"
        )
    ceiling = RECLAIM_JCT_PENALTY * float(base["meanJCT"])
    if not float(reclaim["meanJCT"]) <= ceiling:
        problems.append(
            "autoscale: the mass reclaim's mean-JCT penalty left the "
            f"{RECLAIM_JCT_PENALTY}x band ({reclaim['meanJCT']} vs "
            f"baseline {base['meanJCT']})"
        )
    return problems


def check_packing() -> list[str]:
    rows = parse_table(RESULTS_DIR / "packing.txt")
    problems = []
    arrival, knapsack = rows["arrival"], rows["knapsack"]
    reduction = 1.0 - float(knapsack["waste"]) / float(arrival["waste"])
    if not reduction >= WASTE_REDUCTION_FLOOR:
        problems.append(
            "packing: knapsack no longer cuts padding waste by the "
            f"{WASTE_REDUCTION_FLOOR} floor ({knapsack['waste']} vs "
            f"{arrival['waste']}, reduction {reduction:.2f})"
        )
    if not float(knapsack["bubble"]) <= float(arrival["bubble"]):
        problems.append(
            "packing: knapsack regressed the bubble rate "
            f"({knapsack['bubble']} vs {arrival['bubble']})"
        )
    ceiling = JCT_PENALTY_CEILING * float(arrival["meanJCT"])
    if not float(knapsack["meanJCT"]) <= ceiling:
        problems.append(
            "packing: knapsack mean JCT left the "
            f"{JCT_PENALTY_CEILING}x band ({knapsack['meanJCT']} vs "
            f"arrival {arrival['meanJCT']})"
        )
    if not knapsack["tokens"] == arrival["tokens"]:
        problems.append(
            "packing: knapsack served different work than arrival "
            f"({knapsack['tokens']} vs {arrival['tokens']} tokens)"
        )
    # Double-run determinism: the rerun row must match the knapsack
    # row cell for cell.
    if not rows["knapsack-rerun"] == knapsack:
        problems.append(
            "packing: the knapsack-rerun row diverged from the knapsack "
            "row -- the schedule is no longer deterministic across reruns"
        )
    return problems


def check_autotune() -> list[str]:
    rows = parse_table(RESULTS_DIR / "autotune.txt")
    problems = []
    tuned = rows["tuned"]
    for name, row in rows.items():
        if name == "tuned":
            continue
        # Weak dominance at table precision: no worse on any objective.
        no_worse = (
            float(tuned["meanJCT"]) <= float(row["meanJCT"])
            and int(tuned["goodput"]) >= int(row["goodput"])
            and float(tuned["dollars"]) <= float(row["dollars"])
        )
        strictly_better = (
            float(tuned["meanJCT"]) < float(row["meanJCT"])
            or int(tuned["goodput"]) > int(row["goodput"])
            or float(tuned["dollars"]) < float(row["dollars"])
        )
        if not (no_worse and strictly_better):
            problems.append(
                f"autotune: the tuned config no longer dominates the "
                f"'{name}' default on the held-out trace "
                f"(JCT {tuned['meanJCT']} vs {row['meanJCT']}, goodput "
                f"{tuned['goodput']} vs {row['goodput']}, dollars "
                f"{tuned['dollars']} vs {row['dollars']})"
            )
    artifact = json.loads(
        (RESULTS_DIR / "autotune_front.json").read_text()
    )
    search = artifact["search"]
    accounted = search["collapsed"] + search["pruned"] + search["simulated"]
    if accounted != search["candidates"]:
        problems.append(
            "autotune_front: search accounting no longer adds up "
            f"({accounted} != {search['candidates']} candidates)"
        )
    if not artifact["front"]:
        problems.append("autotune_front: the committed front is empty")
    points = []
    for entry in artifact["front"]:
        config = ServeConfig.from_dict(entry["config"])  # must round-trip
        if config.label() != entry["label"]:
            problems.append(
                f"autotune_front: entry label '{entry['label']}' does "
                f"not match its config ({config.label()})"
            )
        raw = entry["point"]
        points.append(
            ObjectivePoint(
                mean_jct=math.inf if raw["mean_jct"] is None else raw["mean_jct"],
                goodput=raw["goodput"],
                dollars=raw["dollars"],
                gpu_seconds=raw["gpu_seconds"],
            )
        )
    for a in points:
        for b in points:
            if dominates(a, b):
                problems.append(
                    "autotune_front: committed front is not mutually "
                    f"non-dominated ({a} dominates {b})"
                )
    return problems


def main() -> int:
    problems = []
    for check in (check_multi_replica, check_online_serving,
                  check_slo_serving, check_cost_routing,
                  check_calibration, check_fleet_kernel,
                  check_gateway, check_autoscale, check_packing,
                  check_autotune):
        try:
            problems.extend(check())
        except (OSError, KeyError, ValueError, AssertionError,
                ScheduleError) as error:
            problems.append(f"{check.__name__}: {error!r}")
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} benchmark claim(s) regressed")
        return 1
    print("all committed benchmark tables still encode their perf claims")
    return 0


if __name__ == "__main__":
    sys.exit(main())
