"""Regenerate (or verify) the golden fleet corpus.

    PYTHONPATH=src:. python scripts/gen_golden_corpus.py          # write
    PYTHONPATH=src:. python scripts/gen_golden_corpus.py --check  # compare

Serves every scenario of ``tests/golden/scenarios.py`` on the event
loop and writes ``tests/golden/fleet_corpus.json``.  Before writing it
asserts two things per scenario: each fixed-fleet scenario replays to
an identical fingerprint on the lockstep reference loop
(``tests/lockstep_reference.py``), and each scenario really exercises
the behaviour it is named for (a rebalance scenario migrates, a reclaim
scenario forces an evacuation, ...), so a corpus entry can never pin a
trace that quietly stopped testing anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.serve import JobOutcome
from repro.serve.events import EventKernel
from repro.serve.orchestrator import OnlineOrchestrator
from tests.golden.scenarios import SCENARIOS, entry
from tests.helpers import fingerprint
from tests.lockstep_reference import run_lockstep

CORPUS = Path(__file__).resolve().parent.parent / "tests/golden/fleet_corpus.json"


@contextlib.contextmanager
def held_ticket_probe():
    """Count evacuated tickets that wait across an event boundary.

    Every move ejects and injects within one event, so a ticket still
    out of any replica when the next event is popped was held.
    """
    out: set[int] = set()
    seen = {"held": 0}
    eject, inject = OnlineOrchestrator.eject_job, OnlineOrchestrator.inject_job
    pop_until = EventKernel.pop_until

    def ejecting(self, adapter_id):
        out.add(adapter_id)
        return eject(self, adapter_id)

    def injecting(self, ticket):
        out.discard(ticket.adapter_id)
        return inject(self, ticket)

    def popping(self, frontier=float("inf")):
        seen["held"] += len(out)
        return pop_until(self, frontier)

    OnlineOrchestrator.eject_job = ejecting
    OnlineOrchestrator.inject_job = injecting
    EventKernel.pop_until = popping
    try:
        yield seen
    finally:
        OnlineOrchestrator.eject_job = eject
        OnlineOrchestrator.inject_job = inject
        EventKernel.pop_until = pop_until


def moves(result):
    return result.migrations + result.reroutes


#: What each scenario must exercise, as a check on its result and the
#: held-ticket probe's count.
WITNESSES = {
    "fcfs-least-loaded": lambda r, held: len(
        {rec.replica for rec in r.records.values()}
    ) > 1,
    "batch-skew-rebalance": lambda r, held: moves(r) >= 1,
    "seconds-skew-drain-4-stages": lambda r, held: r.rebalance_drains >= 1
    and r.migrations >= 1,
    "seconds-skew-srpt": lambda r, held: moves(r) >= 1,
    "preemptive-srpt": lambda r, held: sum(
        rec.preemptions for rec in r.records.values()
    ) >= 1,
    "deadline-rejects": lambda r, held: {
        rec.outcome for rec in r.records.values()
    } == {JobOutcome.FINISHED, JobOutcome.REJECTED},
    "knapsack-packing": lambda r, held: r.pack_efficiency() > 0,
    "cost-aware-calibrated": lambda r, held: len(
        {rec.replica for rec in r.records.values()}
    ) > 1,
    "packing-affinity-routing": lambda r, held: len(
        {rec.replica for rec in r.records.values()}
    ) > 1,
    "active-migration": lambda r, held: r.migrations >= 1,
    "autoscale-join-retire": lambda r, held: r.joins >= 1 and r.retires >= 1,
    "spot-reclaim-forced": lambda r, held: r.reclaims >= 1
    and r.forced_evacuations >= 1,
    "reclaim-holds-ticket": lambda r, held: r.reclaims >= 1 and held >= 1,
    "gateway-session": lambda r, held: "GATEWAY_INGRESS" in r.events_processed
    and "ARRIVAL" not in r.events_processed,
    "gateway-door-churn": lambda r, held: r.gateway.sheds["quota"] >= 1
    and r.gateway.sheds["queue_full"] >= 1
    and r.gateway.cancelled >= 2,
}


def build_corpus() -> dict:
    corpus = {}
    for scenario in SCENARIOS:
        with held_ticket_probe() as probe:
            replica_set, result = scenario.run()
        if not all(rec.outcome is not JobOutcome.UNFINISHED
                   for rec in result.records.values()):
            raise AssertionError(f"{scenario.name}: a job never finished")
        if not WITNESSES[scenario.name](result, probe["held"]):
            raise AssertionError(
                f"{scenario.name}: the trace no longer exercises what it pins"
            )
        if scenario.lockstep:
            reference_set, workload = scenario.build()
            reference = run_lockstep(reference_set, workload)
            if fingerprint(reference, reference_set) != fingerprint(
                result, replica_set
            ):
                raise AssertionError(
                    f"{scenario.name}: event loop and lockstep reference differ"
                )
        corpus[scenario.name] = entry(replica_set, result)
        print(f"{scenario.name}: {corpus[scenario.name]['jobs']} jobs",
              file=sys.stderr)
    return corpus


def render(corpus: dict) -> str:
    return json.dumps({"scenarios": corpus}, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed corpus")
    args = parser.parse_args(argv)
    text = render(build_corpus())
    if args.check:
        if CORPUS.read_text() != text:
            print(f"{CORPUS} is out of date", file=sys.stderr)
            return 1
        print(f"{CORPUS} matches", file=sys.stderr)
        return 0
    CORPUS.write_text(text)
    print(f"wrote {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
