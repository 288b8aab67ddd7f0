"""Check (or rewrite) the pinned perfbench outcome fingerprints.

    python3 scripts/check_perfbench_fingerprints.py           # compare
    python3 scripts/check_perfbench_fingerprints.py --write   # regenerate

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 1`` for
every benchmark workload and every pinned seed, and compares the
fingerprints its first line prints -- one per input the seed builds --
with ``tests/golden/perfbench_fingerprints.json``.  A fingerprint
digests a workload's outcome (schedules, records, fleet counters), so a
change that claims to leave behaviour alone must reproduce every one of
them.  Two seeds are pinned, so a change tuned against one of them still
has to reproduce the other.  Regenerate only for an intended behaviour
change.  Exits 1 on a mismatch or a failed run.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests/golden/perfbench_fingerprints.json"
WORKLOADS = ("offline-milp", "fleet-512", "gateway-elastic")
SEEDS = (1, 41)
_FINGERPRINTS = re.compile(r"fingerprints ([0-9a-f ]+)$")


def fingerprints(workload: str, seed: int) -> list[str]:
    """The fingerprints one short perfbench run prints for ``workload``."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: perfbench exited {run.returncode}\n"
            f"{run.stdout}{run.stderr}"
        )
    match = _FINGERPRINTS.search(run.stdout.splitlines()[0])
    if match is None:
        raise SystemExit(
            f"{workload} seed {seed}: no fingerprints in {run.stdout[:200]!r}"
        )
    return match.group(1).split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden file instead of comparing")
    args = parser.parse_args()
    got = {
        str(seed): {workload: fingerprints(workload, seed) for workload in WORKLOADS}
        for seed in SEEDS
    }
    if args.write:
        GOLDEN.write_text(json.dumps({"fingerprints": got}, indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    want = json.loads(GOLDEN.read_text())["fingerprints"]
    problems = [
        f"{workload} seed {seed}: fingerprints {got[seed][workload]} "
        f"!= pinned {want.get(seed, {}).get(workload)}"
        for seed in got
        for workload in WORKLOADS
        if got[seed][workload] != want.get(seed, {}).get(workload)
    ]
    for problem in problems:
        print(problem)
    if not problems:
        seeds = " and ".join(got)
        print(f"perfbench fingerprints match for seeds {seeds} on all workloads")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
