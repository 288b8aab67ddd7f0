"""Live gateway door under sustained load and a 10x overload burst.

The :class:`~repro.serve.gateway.ServeGateway` promises two things under
pressure: the door stays *fast* (admission latency is a handful of
microseconds of ledger work, not a fleet replan) and *honest* (every
refusal lands in the :class:`~repro.serve.metrics.GatewayStats` ledger,
every acceptance survives to a finished fleet record).  This bench
drives three scripted sessions against one door (the last also turns
on its fairness quota):

* ``steady`` -- Poisson arrivals at roughly half the aggregate
  token-bucket rate, the regime the door was provisioned for.
* ``burst-10x`` -- the same door at ten times the steady offered rate;
  the bucket and queue bound must shed most of it, and the tail
  admission latency must stay bounded *while* shedding.
* ``long-run`` -- the steady load held for ``LONG_RUN_JOBS`` submits
  through the same door with the fairness quota also on, so every
  submit sizes every tenant's backlog while thousands of settled jobs
  pile up behind the door.  A door whose per-submit work grows with its
  release history slows down as the run goes on; this row shows it
  does not.

Virtual time is a seeded :class:`~repro.serve.ManualClock` (the door's
rate/quota decisions are deterministic per seed); wall-clock throughput
and admission latency are real ``perf_counter`` measurements.  The
claims, held by ``check`` on every sweep and on the committed
``results/gateway.json`` (``scripts/check_bench_results.py``):

* every scenario sustains at least ``SUBMIT_RATE_FLOOR`` wall-clock
  submits per second through the live door;
* p99 admission latency stays under ``P99_LATENCY_CEILING`` seconds,
  overloaded or not;
* the ``long-run`` p99 admission latency of the last quarter of
  submits stays within ``LATENCY_DRIFT_CEILING`` x that of the first
  quarter (both measured in one process, so machine speed cancels);
* **zero admitted jobs lost** -- every released submission has a
  finished fleet record after the drain;
* the shed count equals the backpressure ledger -- refusals returned to
  callers and ``GatewayStats.sheds`` are the same tally, and
  ``submitted == accepted + shed``.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_gateway.py --seed 13
"""

import argparse
import asyncio
import time

import numpy as np

from benchmarks.common import (
    at_both_precisions,
    render_results,
    require,
    write_results,
)
from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import GatewayOverload, ManualClock, ServeConfig
from repro.serve.metrics import JobOutcome

NUM_STAGES = 2
CAPACITY = 8192
DEFAULT_SEED = 11
#: Tenants sharing the door; each gets its own token bucket and queue.
TENANTS = ("acme", "globex", "initech", "umbrella")
#: Distinct sample-length values across the tenant population (shared
#: lengths share a ``TenantProfile``, so the bench times the door, not
#: cold cost-model pricing).
NUM_PROFILES = 16
#: Per-tenant token-bucket refill rate, virtual arrivals/second.
GATE_RATE = 40.0
#: Token-bucket burst allowance.
GATE_BURST = 8.0
#: Per-tenant backlog bound behind the door.
QUEUE_BOUND = 32
#: Steady offered load: half the aggregate bucket rate, so the door
#: sheds (almost) nothing and the bench times the accept path.
STEADY_RATE = 0.5 * GATE_RATE * len(TENANTS)
#: Submissions in the ``long-run`` scenario.
LONG_RUN_JOBS = 4000
#: Fairness quota of the ``long-run`` door: a tenant may hold at most
#: this share of the total backlog while others wait.
LONG_RUN_FAIRNESS = 0.5
#: (name, submissions, offered-load multiplier over ``STEADY_RATE``,
#: fairness quota).
SCENARIOS = (
    ("steady", 400, 1.0, None),
    ("burst-10x", 400, 10.0, None),
    ("long-run", LONG_RUN_JOBS, 1.0, LONG_RUN_FAIRNESS),
)
#: Minimum wall-clock submissions/second through the live door.
SUBMIT_RATE_FLOOR = 200.0
#: Maximum p99 wall-clock admission latency, seconds (any decision --
#: accept or shed -- must be bounded even mid-overload).
P99_LATENCY_CEILING = 0.050
#: Maximum ratio of the ``long-run`` p99 admission latency over its last
#: quarter of submits to that over its first quarter.
LATENCY_DRIFT_CEILING = 1.5

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)


def door_config(fairness):
    """The door every scenario runs against; ``fairness`` = quota or None."""
    return ServeConfig(
        num_replicas=2,
        slots=4,
        window_batches=1,
        gateway_rate=GATE_RATE,
        gateway_burst=GATE_BURST,
        gateway_queue_bound=QUEUE_BOUND,
        gateway_fairness=fairness,
    )


def make_jobs(num_jobs, seed):
    """One-global-batch tenants drawn from a small pool of lengths."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(64, 512, size=NUM_PROFILES)
    return [
        AdapterJob(
            a,
            FinetuneDataset(a, [Sample(a, 0, int(pool[a % NUM_PROFILES]))]),
            1,
        )
        for a in range(num_jobs)
    ]


def serve(num_jobs, offered_rate, seed, fairness):
    """Drive one live session; return (result, caller-seen sheds, seconds).

    ``seconds`` covers the submit loop only -- the wall-clock cost of
    pushing ``num_jobs`` arrivals through the door -- not the drain.
    """
    jobs = make_jobs(num_jobs, seed + 10)
    gaps = np.random.default_rng(seed).exponential(
        1.0 / offered_rate, size=num_jobs
    )

    async def drive():
        clock = ManualClock()
        gateway = door_config(fairness).build_gateway(COST, SCHED, clock=clock)
        refused = 0
        start = time.perf_counter()
        for a, job in enumerate(jobs):
            clock.advance(float(gaps[a]))
            outcome = await gateway.submit(
                job, tenant=TENANTS[a % len(TENANTS)]
            )
            if isinstance(outcome, GatewayOverload):
                refused += 1
        elapsed = time.perf_counter() - start
        result = await gateway.drain()
        return result, refused, elapsed

    return asyncio.run(drive())


def sweep(seed=DEFAULT_SEED):
    results = {}
    for name, num_jobs, multiplier, fairness in SCENARIOS:
        result, refused, elapsed = serve(
            num_jobs, STEADY_RATE * multiplier, seed, fairness
        )
        stats = result.stats
        # The honesty gates are structural -- assert them inside the
        # run too, not just as claims about the committed rows.
        assert stats.submitted == num_jobs
        assert refused == stats.shed_total(), name
        assert stats.submitted == stats.accepted + stats.shed_total(), name
        finished = sum(
            1
            for record in result.records.values()
            if record.outcome is JobOutcome.FINISHED
        )
        latencies = stats.admission_latencies
        quarter = len(latencies) // 4
        drift = np.percentile(latencies[-quarter:], 99) / np.percentile(
            latencies[:quarter], 99
        )
        results[name] = {
            "jobs": num_jobs,
            "offered": STEADY_RATE * multiplier,
            "accepted": stats.accepted,
            "shed": stats.shed_total(),
            "lost": stats.released - finished,
            "p99_ms": result.admission_latency_percentiles()["p99"] * 1e3,
            "submit/s": num_jobs / elapsed,
            "q4/q1": float(drift),
        }
    return results


COLUMNS = (
    ("scenario", 11, None), ("jobs", 6, None), ("offered", 9, ".0f"),
    ("accepted", 10, None), ("shed", 6, None), ("lost", 6, None),
    ("p99_ms", 8, ".3f"), ("submit/s", 9, ".0f"), ("q4/q1", 9, ".2f"),
)


def report(rows, seed):
    title = (
        f"Live gateway door under load (seed {seed}, {len(TENANTS)} "
        f"tenants, bucket {GATE_RATE:g}/s burst {GATE_BURST:g}, queue "
        f"bound {QUEUE_BOUND}, long-run quota {LONG_RUN_FAIRNESS:g}, "
        "LLaMa-8B)"
    )
    write_results("gateway", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    claims = []
    for name, row in rows.items():
        claims += [
            (row["lost"] == 0,
             f"{name} lost {row['lost']} admitted job(s) -- every released "
             "submission must finish"),
            (row["jobs"] == row["accepted"] + row["shed"],
             f"{name} ledger does not conserve "
             f"({row['jobs']} != {row['accepted']} + {row['shed']})"),
            (row["submit/s"] >= SUBMIT_RATE_FLOOR,
             f"{name} sustained {row['submit/s']:.0f} submits/s, below the "
             f"{SUBMIT_RATE_FLOOR:.0f}/s floor"),
            (row["p99_ms"] <= P99_LATENCY_CEILING * 1e3,
             f"{name} p99 admission latency {row['p99_ms']:.3f} ms left the "
             f"{P99_LATENCY_CEILING * 1e3:.0f} ms ceiling"),
        ]
    steady, burst, long_run = (rows[name] for name, *_ in SCENARIOS)
    claims += [
        # The burst scenario must actually exercise backpressure, and
        # the door must shed *more* of the 10x load, not admit it all.
        (burst["shed"] > steady["shed"] and burst["shed"] > 0,
         "the 10x burst no longer sheds more than steady load "
         f"({burst['shed']} vs {steady['shed']}) -- backpressure stopped "
         "engaging"),
        # Door work per submit must not grow with the release history.
        (long_run["q4/q1"] <= LATENCY_DRIFT_CEILING,
         f"long-run p99 admission latency grew {long_run['q4/q1']:.2f}x "
         "from the first to the last quarter of submits (ceiling "
         f"{LATENCY_DRIFT_CEILING}x) -- door work grows with history"),
    ]
    return [message for holds, message in claims if not holds]


def test_gateway(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, DEFAULT_SEED)
    require(check(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload + arrival seed")
    args = parser.parse_args()
    rows = sweep(args.seed)
    report(rows, args.seed)
    require(check(rows))


if __name__ == "__main__":
    main()
