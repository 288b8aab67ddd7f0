"""The committed serving-bench results still hold every claim.

Each checked ``benchmarks/bench_*.py`` states its claims once, as
``check(rows)``; ``scripts/check_bench_results.py`` runs them over the
JSON rows committed under ``benchmarks/results/``.  These tests run the
same loop without running any bench, check that each committed ``.txt``
table is the rendering of its committed rows, and corrupt gated cells
to prove each claim fails on its own, at full precision and at the
precision its table prints.
"""

import sys

import pytest

from benchmarks import bench_slo_serving
from benchmarks.common import RESULTS_DIR, load_rows, render_results, shown
from scripts.check_bench_results import CHECKS, committed_problems

#: Marks a mutation that deletes the key instead of overwriting it.
DELETE = object()

#: One corruption per claim: (results file, {key path: new value}, a
#: fragment of that claim's message).  Every problem the corruption
#: causes must carry the fragment, so no other claim covers for it.
MUTATIONS = [
    ("multi_replica", {("least-loaded-x4", "unfinished"): 1}, "7 of 8 jobs"),
    ("multi_replica", {("least-loaded-x1", "jobs"): 7}, "7 of 8 jobs"),
    ("multi_replica", {("affinity+migrate-x2", "total_tokens"): 0},
     "served different work than x1"),
    ("multi_replica", {("least-loaded-x2", "jobs/t"): 1.0},
     "beat 1 on jobs/time"),
    ("multi_replica", {("least-loaded-x2", "makespan"): 6.0},
     "regressed makespan"),
    ("multi_replica", {("least-loaded-x2", "meanJCT"): 3.0},
     "regressed mean JCT"),
    ("online_serving", {("online-w1", "unfinished"): 1},
     "online-w1 left 1 job(s) unfinished"),
    ("online_serving", {("online-w1", "total_tokens"): 0},
     "served different work than the oracle"),
    ("online_serving", {("oracle-offline", "replans"): 2},
     "the oracle replanned"),
    ("online_serving", {("online-w2", "replans"): 1},
     "stopped replanning incrementally"),
    ("online_serving", {("online-w2", "makespan"): 4.0},
     "below the oracle lower bound"),
    ("online_serving", {("online-w2", "noops"): 10**6}, "no-ops dominate"),
    ("slo_serving", {("edf", "unfinished"): 1},
     "edf left 1 job(s) unfinished"),
    ("slo_serving", {("srpt", "total_tokens"): 0},
     "served different work than fcfs"),
    ("slo_serving", {("srpt", "meanJCT"): 5.0}, "SRPT no longer beats FCFS"),
    ("slo_serving", {("srpt-preempt", "meanJCT"): 3.0},
     "preemptive SRPT regressed"),
    ("slo_serving", {("srpt-preempt", "preempt"): 0}, "never preempted"),
    ("slo_serving", {("srpt-preempt", "cuts"): 0}, "never cut a wave"),
    ("slo_serving", {("priority-preempt", "jctHigh"): 4.2},
     "high class no longer beats FCFS"),
    ("slo_serving", {("priority-preempt", "jctLow"): 0.5},
     "beats the best-effort class"),
    ("slo_serving", {("edf", "missrate"): 1.5},
     "EDF misses more deadlines"),
    ("slo_serving", {("numeric-resume", "preempt"): 0},
     "numeric leg ran without a preemption"),
    ("slo_serving", {("numeric-resume", "lossless"): False},
     "no longer bit-identical"),
    ("slo_serving", {("numeric-resume",): DELETE}, "unreadable results"),
    ("cost_routing", {("cost-aware-x2", "meanJCT"): 4.0},
     "no longer matches least-loaded"),
    ("cost_routing", {("cost-aware-x2", "total_tokens"): 0},
     "cost-aware routing served different work"),
    ("cost_routing", {("edf-gated", "reject"): 0},
     "the feasibility gate never shed"),
    ("cost_routing", {("edf-gated", "servedmiss"): 1.0},
     "lowers the served deadline-miss rate"),
    ("cost_routing", {("edf", "goodput"): 5},
     "regressed deadline-goodput"),
    ("cost_routing", {("least-loaded-x2", "unfinished"): 1},
     "least-loaded-x2 left 1 job(s) unfinished"),
    ("cost_routing", {("edf-gated", "unfinished"): 1},
     "edf-gated left 1 job(s) unfinished"),
    ("cost_routing", {("adaptive-window", "replans"): 12},
     "stopped saving replans"),
    ("cost_routing", {("adaptive-window", "makespan"): 6.0},
     "the adaptive window costs makespan"),
    ("cost_routing", {("static-w1", "calib"): 2.5},
     "static-w1 calibration ratio"),
    ("cost_routing", {("edf", "calib"): None}, "edf calibration ratio"),
    ("calibration", {("corrected", "caliberr"): 0.2}, "tightens caliberr"),
    ("calibration", {("corrected", "waveerr"): 0.7}, "tightens waveerr"),
    ("calibration", {("uncorrected", "calib"): 2.5},
     "uncorrected ratio 2.5"),
    ("calibration", {("corrected", "calib"): 1.6}, "corrected ratio 1.6"),
    ("calibration", {("corrected", "total_tokens"): 0},
     "correction changed the work served"),
    ("calibration", {("edf-queueaware", "goodput"): 0},
     "admission on deadline goodput"),
    ("calibration", {("edf-service", "smiss"): 0.0},
     "regressed the served miss rate"),
    ("calibration", {("edf-service", "reject"): 0},
     "a feasibility gate never shed"),
    ("calibration", {("secs-skew", "meanJCT"): 3.0},
     "no longer matches batch-skew mean JCT"),
    ("calibration", {("secs-skew-drain", "drains"): 0},
     "never paid a drain"),
    ("calibration", {("batch-skew", "drains"): 1},
     "a leg without drain-then-migrate drained"),
    ("calibration", {("secs-skew-drain", "total_tokens"): 0},
     "secs-skew-drain served different work"),
    ("calibration", {("edf-queueaware", "unfinished"): 1},
     "edf-queueaware left 1 job(s) unfinished"),
    ("fleet_kernel", {("fleet-64", "events/s"): 100.0},
     "below the event-throughput floor"),
    ("fleet_kernel", {("fleet-512", "us/event"): 1000.0}, "us/event grows"),
    ("gateway", {("long-run", "lost"): 1}, "lost 1 admitted job(s)"),
    ("gateway", {("steady", "accepted"): 399}, "ledger does not conserve"),
    ("gateway", {("burst-10x", "submit/s"): 100.0}, "submits/s, below"),
    ("gateway", {("steady", "p99_ms"): 100.0}, "ms ceiling"),
    ("gateway", {("burst-10x", "shed"): 0, ("burst-10x", "accepted"): 400},
     "backpressure stopped engaging"),
    ("gateway", {("long-run", "q4/q1"): 2.0},
     "door work grows with history"),
    ("autoscale", {("diurnal", "lost"): 1}, "diurnal lost 1 job(s)"),
    ("autoscale", {("flash-crowd", "missrate"): 0.5},
     "miss rate 0.5 left"),
    ("autoscale", {("mass-reclaim", "gpu_s"): 1000.0},
     "stopped saving GPU-seconds"),
    ("autoscale", {("diurnal", "retires"): 0}, "both grows and shrinks"),
    ("autoscale", {("flash-crowd", "joins"): 0, ("flash-crowd", "gpu_s"): 1.0},
     "the flash crowd never grew"),
    ("autoscale", {("mass-reclaim", "reclaims"): 1}, "notice says"),
    ("autoscale", {("mass-reclaim", "meanJCT"): 1.0}, "mean-JCT penalty"),
    # The rerun row must equal the knapsack row, so knapsack cells are
    # corrupted in both to leave the determinism claim standing.
    ("packing", {("knapsack", "waste"): 0.0095,
                 ("knapsack-rerun", "waste"): 0.0095}, "padding waste"),
    ("packing", {("knapsack", "bubble"): 0.08,
                 ("knapsack-rerun", "bubble"): 0.08},
     "regressed the bubble rate"),
    ("packing", {("knapsack", "meanJCT"): 5.0,
                 ("knapsack-rerun", "meanJCT"): 5.0}, "mean JCT left"),
    ("packing", {("knapsack", "tokens"): 1, ("knapsack-rerun", "tokens"): 1},
     "served different work than arrival"),
    ("packing", {("arrival", "unfinished"): 1},
     "arrival left 1 job(s) unfinished"),
    ("packing", {("arrival", "padded"): 0}, "fewer padded tokens"),
    ("packing", {("knapsack-rerun", "makespan"): 5.0},
     "knapsack-rerun row diverged"),
    ("autotune", {("gated", "meanJCT"): 0.7},
     "no longer dominates the 'gated' default"),
    ("autotune_front", {("search", "candidates"): 55},
     "accounting no longer adds up"),
    ("autotune_front", {("search", "collapsed"): 0,
                        ("search", "simulated"): 54},
     "the equivalence collapse did no work"),
    ("autotune_front", {("front",): []}, "the front is empty"),
    ("autotune_front", {("front", 0, "label"): "x9"},
     "does not match its config"),
    ("autotune_front", {("front", 0, "config", "packing"): DELETE},
     "is stale"),
    ("autotune_front", {("front", 0, "config", "bogus"): 1},
     "front entry 'x1-least_loaded-srpt-s2-gate-w2': "),
    ("autotune_front", {("front", 1, "point", "mean_jct"): 0.5},
     "the front is not non-dominated"),
]

#: Strict wins smaller than the table prints, one per strict claim on
#: floats: (results file, the cells to set given the rows as the table
#: shows them, a fragment of that claim's message).  Each win holds at
#: full precision and prints as a tie.
TIE = 1e-9
SUB_TABLE_WINS = [
    ("multi_replica", lambda rows: {
        ("least-loaded-x2", "jobs/t"): rows["least-loaded-x1"]["jobs/t"] + TIE,
    }, "beat 1 on jobs/time"),
    ("slo_serving", lambda rows: {
        ("srpt", "meanJCT"): rows["fcfs"]["meanJCT"] - TIE,
    }, "SRPT no longer beats FCFS"),
    ("slo_serving", lambda rows: {
        ("priority-preempt", "jctHigh"): rows["fcfs"]["meanJCT"] - TIE,
    }, "high class no longer beats FCFS"),
    ("slo_serving", lambda rows: {
        ("priority-preempt", "jctLow"):
            rows["priority-preempt"]["jctHigh"] + TIE,
    }, "beats the best-effort class"),
    ("cost_routing", lambda rows: {
        ("edf-gated", "servedmiss"): rows["edf"]["missrate"] - TIE,
    }, "lowers the served deadline-miss rate"),
    ("calibration", lambda rows: {
        ("corrected", "caliberr"): rows["uncorrected"]["caliberr"] - TIE,
    }, "tightens caliberr"),
    ("calibration", lambda rows: {
        ("corrected", "waveerr"): rows["uncorrected"]["waveerr"] - TIE,
    }, "tightens waveerr"),
    ("autoscale", lambda rows: {
        ("diurnal", "gpu_s"): (rows["diurnal"]["repl"]
                               + rows["diurnal"]["joins"])
        * rows["diurnal"]["makespan"] - TIE,
    }, "diurnal stopped saving GPU-seconds"),
    ("autotune", lambda rows: {
        ("gated", "meanJCT"): rows["tuned"]["meanJCT"] + TIE,
        ("gated", "goodput"): rows["tuned"]["goodput"],
        ("gated", "dollars"): rows["tuned"]["dollars"] + TIE,
    }, "no longer dominates the 'gated' default"),
]


def bench_of(name):
    """The bench module whose ``check`` reads results ``name``."""
    check = next(entry[0] for entry in CHECKS if name in entry[1:])
    return sys.modules[check.__module__]


def test_every_committed_result_holds_its_claims():
    assert committed_problems() == []


@pytest.mark.parametrize("name", [entry[1] for entry in CHECKS])
def test_committed_table_renders_from_committed_rows(name):
    bench = bench_of(name)
    lines = (RESULTS_DIR / f"{name}.txt").read_text().splitlines()
    rows = load_rows(name)
    if bench is bench_slo_serving:
        assert bench.render(lines[0], rows) == lines
    else:
        assert render_results(lines[0], bench.COLUMNS, rows) == lines


def corrupted(name, cells):
    """A results loader that sets ``cells`` in results ``name``."""
    def load(results):
        document = load_rows(results)
        if results == name:
            for path, value in cells.items():
                target = document
                for key in path[:-1]:
                    target = target[key]
                if value is DELETE:
                    del target[path[-1]]
                else:
                    target[path[-1]] = value
        return document
    return load


@pytest.mark.parametrize(
    "name, cells, fragment", MUTATIONS,
    ids=[f"{name}:{'/'.join(map(str, next(iter(cells))))}"
         for name, cells, _ in MUTATIONS],
)
def test_corrupting_a_gated_cell_fails_its_claim(name, cells, fragment):
    problems = committed_problems(corrupted(name, cells))
    bench = next(names[0] for _, *names in CHECKS if name in names)
    assert problems
    for problem in problems:
        assert problem.startswith(f"{bench}: ") and fragment in problem


@pytest.mark.parametrize("name, cells, fragment", SUB_TABLE_WINS,
                         ids=[name for name, *_ in SUB_TABLE_WINS])
def test_a_win_the_table_cannot_show_fails_its_claim(name, cells, fragment):
    def load(results):
        document = load_rows(results)
        if results == name:
            document = shown(document, bench_of(name).COLUMNS)
            for (scenario, column), value in cells(document).items():
                document[scenario][column] = value
        return document

    problems = committed_problems(load)
    assert problems
    for problem in problems:
        assert problem.endswith(" (at table precision)")
        assert fragment in problem
