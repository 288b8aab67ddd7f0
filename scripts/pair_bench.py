"""Run the whole-stack benchmark in alternating parent/change pairs.

    python3 scripts/pair_bench.py --base HEAD~1 --workload fleet-512 \\
        --seed 23 --seconds 8 --pairs 10 [--claim us_per_item]

Exports ``--base`` into a temporary directory (``git archive``, removed
when done), then runs ``perfbench/run.py`` with identical settings on
both sides, ``--pairs`` times, alternating which side runs first.  The
change side is the working tree this script sits in.  Prints every
pair, each side's median and quartiles, and the win count for every
end-to-end metric ``BENCHMARK.json`` declares (direction from its
``better``).  The claimed metric also gets its median ratio in the
better direction (``1.19x``) and the claim verdict: the change must win
at least nine tenths of the pairs (ties count for neither side), and
the medians must differ, in the better direction, by more than the
parent's interquartile range.  Fewer than ten pairs never make a claim.
Every other metric gets a no-regression verdict against its declared
``bound`` (see :func:`regression`).  The door's admission latency
figures (:data:`FIGURES`), which gateway workloads print, follow as each
side's median and quartiles, with no verdict: they are workload
figures, not declared metrics.  Last come both sides' code lines
(``scripts/count_loc.py``) for ``src/`` and ``src/repro/serve``, so a
change that claims to shrink the code gets its size delta from the same
command.  Exits 1 when a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from count_loc import count_tree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_FRACTION = 0.9
#: Trees whose code lines are printed for both sides.
LOC_TREES = ("src", "src/repro/serve")
#: perfbench workload figures printed for both sides, without a verdict.
FIGURES = ("admit_p50_us", "admit_p99_us")


@dataclass(frozen=True)
class Spread:
    """A side's median and quartiles over its runs."""

    q1: float
    median: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Spread":
        q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
        return cls(float(q1), float(median), float(q3))

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class Verdict:
    """Whether pairs of runs support a claimed gain on one metric."""

    pairs: int
    wins: int
    ties: int
    base: Spread
    change: Spread
    holds: bool
    reason: str


def wins_and_ties(
    base: Sequence[float], change: Sequence[float], better: str
) -> tuple[int, int]:
    """Pairs the change wins, and pairs tied, with ``better`` the direction."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change, strict=True) if sign * (c - b) > 0)
    ties = sum(1 for b, c in zip(base, change, strict=True) if c == b)
    return wins, ties


def verdict(base: Sequence[float], change: Sequence[float], better: str) -> Verdict:
    """The claim rule over paired runs of one metric.

    A gain holds when at least :data:`MIN_PAIRS` pairs ran, the change
    won at least :data:`WIN_FRACTION` of them (a tie is no win), and the
    change's median beats the parent's, in the ``better`` direction, by
    more than the parent's interquartile range.
    """
    wins, ties = wins_and_ties(base, change, better)
    pairs = len(base)
    base_spread, change_spread = Spread.of(base), Spread.of(change)
    gap = change_spread.median - base_spread.median
    if better == "lower":
        gap = -gap
    if pairs < MIN_PAIRS:
        holds, reason = False, f"only {pairs} pairs; a claim needs {MIN_PAIRS}"
    elif wins < WIN_FRACTION * pairs:
        holds, reason = False, f"won {wins}/{pairs}, below {WIN_FRACTION:.0%}"
    elif gap <= base_spread.iqr:
        holds = False
        reason = f"median gain {gap:.6g} is within the parent IQR {base_spread.iqr:.6g}"
    else:
        holds = True
        reason = (
            f"won {wins}/{pairs}; median gain {gap:.6g} > parent IQR "
            f"{base_spread.iqr:.6g}"
        )
    return Verdict(pairs, wins, ties, base_spread, change_spread, holds, reason)


def gain_ratio(base: Spread, change: Spread, better: str) -> float:
    """How many times better the change's median is (above 1 is a gain)."""
    num, den = (base, change) if better == "lower" else (change, base)
    return num.median / den.median if den.median else float("inf")


def regression(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """The verdict on a metric the change does not claim.

    ``bound`` is the share of the parent's median the metric may worsen
    by.  ``ok`` when the change's median is worse by no more than that,
    ``REGRESSED`` when it is worse by more.  When the parent's own
    spread (IQR over median) exceeds the bound, the runs cannot tell
    either way: ``unresolved``, unless every change run reads better
    than every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_spread, change_spread = Spread.of(base), Spread.of(change)
    allowed = bound * abs(base_spread.median)
    if base_spread.iqr > allowed:
        dominates = min(sign * c for c in change) > max(sign * b for b in base)
        return "ok" if dominates else "unresolved"
    worse_by = sign * (base_spread.median - change_spread.median)
    return "ok" if worse_by <= allowed else "REGRESSED"


def code_lines(base: Path, change: Path) -> list[str]:
    """One report line per :data:`LOC_TREES` tree: both sides' code lines."""
    report = []
    for tree in LOC_TREES:
        before, after = count_tree(base / tree)[1], count_tree(change / tree)[1]
        report.append(
            f"  {tree:<17} code lines base {before:,}  change {after:,}  "
            f"({after - before:+,})"
        )
    return report


def figures(report: str) -> dict[str, float]:
    """The :data:`FIGURES` lines of a perfbench report, by name.

    A figure line reads ``  <name>  <value>  <unit>  n=...``; a workload
    without a door prints none.
    """
    found = {}
    for line in report.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in FIGURES:
            found[fields[0]] = float(fields[1])
    return found


def figure_lines(base: Sequence[dict], change: Sequence[dict]) -> list[str]:
    """One line per figure every run printed: both sides' spread."""
    report = []
    for name in FIGURES:
        if not all(name in run for run in (*base, *change)):
            continue
        b = Spread.of([run[name] for run in base])
        c = Spread.of([run[name] for run in change])
        report.append(
            f"  {name:<17} base {b.median:.6g} [{b.q1:.6g}, {b.q3:.6g}]  "
            f"change {c.median:.6g} [{c.q1:.6g}, {c.q3:.6g}]  (figure, no verdict)"
        )
    return report


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``: its metric values,
    and the :data:`FIGURES` it printed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    if run.returncode != 0 or not summary.get("correct"):
        raise SystemExit(
            f"perfbench failed in {checkout} (exit {run.returncode})\n"
            f"{run.stdout}{run.stderr}"
        )
    values = {name: entry["value"] for name, entry in summary["metrics"].items()}
    return {**values, **figures(run.stdout)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--claim", default="us_per_item",
                        help="end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    bounds = {metric["name"]: metric["bound"] for metric in declared}
    if args.claim not in better:
        parser.error(f"--claim must be one of {sorted(better)}")

    with tempfile.TemporaryDirectory(prefix="pair-bench-") as scratch:
        base_dir = Path(scratch) / "base"
        base_dir.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive.stdout,
                       check=True)
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        sides = {"base": base_dir, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(
                    run_once(sides[side], args.workload, args.seed, args.seconds)
                )
            cells = "  ".join(
                f"{name} {runs['base'][-1][name]:.6g} -> "
                f"{runs['change'][-1][name]:.6g}"
                for name in better
            )
            print(f"pair {pair + 1:>2} ({order[0]} first): {cells}", flush=True)
        sizes = code_lines(base_dir, ROOT)

    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s per run, "
          f"{args.pairs} pairs (median [q1, q3]; wins count for the change):")
    for name, direction in better.items():
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        result = verdict(base, change, direction)
        b, c = result.base, result.change
        if name == args.claim:
            status = f"{gain_ratio(b, c, direction):.2f}x (claimed)"
        else:
            outcome = regression(base, change, direction, bounds[name])
            status = f"{outcome} (bound {bounds[name]:.0%})"
        print(
            f"  {name:<17} base {b.median:.6g} [{b.q1:.6g}, {b.q3:.6g}]  "
            f"change {c.median:.6g} [{c.q1:.6g}, {c.q3:.6g}]  "
            f"wins {result.wins}/{result.pairs} ties {result.ties} ({direction} "
            f"is better)  {status}"
        )
    for line in figure_lines(runs["base"], runs["change"]):
        print(line)
    claim = verdict(
        [run[args.claim] for run in runs["base"]],
        [run[args.claim] for run in runs["change"]],
        better[args.claim],
    )
    ratio = gain_ratio(claim.base, claim.change, better[args.claim])
    print(f"claim {args.claim}: {'HOLDS' if claim.holds else 'NOT MET'} "
          f"({ratio:.2f}x) -- {claim.reason}")
    print("\n".join(sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
