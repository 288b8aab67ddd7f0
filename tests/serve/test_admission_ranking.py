"""The admission loop picks what the full ranking would have picked.

``OnlineOrchestrator._best_candidate`` returns the next job to admit
without sorting the queue: the lowest policy key wins, and only the
candidates tied at it are told apart -- by the knapsack interleave bias
when that hook is on, then by adapter id.  :func:`reference_ranking`
freezes the ranking it replaced, ``sorted`` over ``(key, bias, adapter
id)`` of every due candidate with the bias computed for all of them;
the property below holds the best candidate to that ranking's first
entry at every decision a random run makes.  A class-only ordering
policy makes exact key ties common (every shipped policy ends its key
with the adapter id, so it never ties), which is where the bias decides.

The counting tests pin the early returns: with nothing due, or with
every slot taken under a non-preemptive policy, no policy key and no
interleave bias is computed at all.
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CostEstimator,
    FCFSOrdering,
    OnlineOrchestrator,
    OrchestratorConfig,
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
    StreamingSimExecutor,
)
from repro.serve.costing import TenantProfile
from repro.serve.ordering import JobView

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHEDULER = SchedulerConfig(capacity=1024, num_stages=2, use_milp=False)


@dataclass(frozen=True)
class ClassOrdering:
    """Rank by priority class alone: equal classes tie exactly."""

    preemptive: bool = False

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        return (-job.priority,)


def reference_ranking(orch):
    """Every due candidate as ``(key, bias, adapter id)``, fully sorted.

    The ranking the admission loop used to build on every call: the
    policy key and the interleave bias (0.0 when the hook is off) of
    each due pending arrival and parked job, against the live set in
    adapter-id order.
    """
    config, now = orch.config, orch.executor.clock
    queued = [job for job in orch._pending if job.serve_job.arrival_time <= now]
    queued += orch._parked.values()
    interleave = (
        getattr(config.admission, "interleave_key", None)
        if config.packing == "knapsack" and config.estimator is not None
        else None
    )
    live = tuple(
        TenantProfile.from_job(orch._active[aid].serve_job.job)
        for aid in sorted(orch._active)
    )
    ranked = []
    for job in queued:
        view = orch._view(job)
        bias = (
            0.0
            if interleave is None
            else interleave(
                TenantProfile.from_job(job.serve_job.job), live, config.estimator
            )
        )
        ranked.append((config.ordering.key(view, now), bias, view.adapter_id))
    return sorted(ranked)


def expected_best(orch):
    ranked = reference_ranking(orch)
    return None if not ranked else (ranked[0][0], ranked[0][2])


#: Short and long samples mixed, so candidates' profiles differ.
LENGTH = st.one_of(st.integers(16, 128), st.integers(400, 1000))
JOBS = st.lists(
    st.tuples(
        st.lists(LENGTH, min_size=1, max_size=6),  # sample lengths
        st.integers(1, 3),  # global batch size
        st.sampled_from([0.0, 0.0, 0.1, 0.5]),  # arrival: equal stamps are common
        st.integers(0, 1),  # priority class
    ),
    min_size=1,
    max_size=6,
)
POLICIES = [
    FCFSOrdering(),
    FCFSOrdering(preemptive=True),
    SRPTOrdering(),
    SRPTOrdering(preemptive=True),
    ClassOrdering(),
    ClassOrdering(preemptive=True),
]


def workload(specs):
    return [
        ServeJob(
            job=AdapterJob(
                a, FinetuneDataset(a, [Sample(a, i, n) for i, n in enumerate(lengths)]),
                gbs,
            ),
            arrival_time=arrival,
            priority=priority,
        )
        for a, (lengths, gbs, arrival, priority) in enumerate(specs)
    ]


def orchestrator(policy, packing, slots):
    config = OrchestratorConfig(
        scheduler=SCHEDULER,
        window_batches=1,
        admission=SlotAdmission(slots),
        ordering=policy,
        estimator=CostEstimator.for_scheduler(COST, SCHEDULER),
        packing=packing,
    )
    return OnlineOrchestrator(StreamingSimExecutor(COST, 2), config)


def check_every_decision(specs, policy, packing, slots):
    """Run a workload; every best-candidate call the loop makes, and one
    more at each step boundary, equals the reference's first entry.
    Returns how many of those decisions the bias made: the pick is not
    the lowest adapter id among the candidates tied at the best key."""
    orch = orchestrator(policy, packing, slots)
    best = orch._best_candidate
    decided = 0

    def checked():
        nonlocal decided
        ranked = reference_ranking(orch)
        got = best()
        assert got == expected_best(orch)
        if ranked:
            tied = [aid for key, _bias, aid in ranked if key == ranked[0][0]]
            decided += ranked[0][2] != min(tied)
        return got

    orch._best_candidate = checked
    orch.start(workload(specs))
    checked()
    while orch.step():
        checked()
    records = orch.finish().records.values()
    assert all(record.finish_time is not None for record in records)
    return decided


#: Four equal-class jobs arriving together onto two slots: the bias,
#: not the adapter id, decides some of the picks.
TIED = (
    [
        ([900, 700], 1, 0.0, 0),
        ([40, 60, 30], 3, 0.0, 0),
        ([500], 1, 0.0, 0),
        ([120, 800, 300, 64], 2, 0.0, 0),
    ],
    ClassOrdering(),
    "knapsack",
    2,
)


def test_pinned_workload_breaks_ties_by_the_bias():
    assert check_every_decision(*TIED) > 0


@settings(max_examples=60, deadline=None)
@given(
    specs=JOBS,
    policy=st.sampled_from(POLICIES),
    packing=st.sampled_from(["arrival", "knapsack"]),
    slots=st.integers(1, 3),
)
@example(*TIED)
def test_best_candidate_is_the_full_rankings_first(specs, policy, packing, slots):
    check_every_decision(specs, policy, packing, slots)


# -- no ranking where no slot can be taken -----------------------------------


@dataclass(frozen=True)
class CountingClassOrdering(ClassOrdering):
    """:class:`ClassOrdering` that counts its ``key`` calls."""

    calls: list = None  # type: ignore[assignment]

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        self.calls.append("key")
        return super().key(job, now)


@dataclass(frozen=True)
class CountingSlots(SlotAdmission):
    """:class:`SlotAdmission` that counts its ``interleave_key`` calls."""

    calls: list = None  # type: ignore[assignment]

    def interleave_key(self, candidate, live, estimator):
        self.calls.append("interleave_key")
        return super().interleave_key(candidate, live, estimator)


def counting_orchestrator(preemptive, arrivals):
    calls: list[str] = []
    config = OrchestratorConfig(
        scheduler=SCHEDULER,
        window_batches=1,
        admission=CountingSlots(1, calls=calls),
        ordering=CountingClassOrdering(preemptive=preemptive, calls=calls),
        estimator=CostEstimator.for_scheduler(COST, SCHEDULER),
        packing="knapsack",
    )
    orch = OnlineOrchestrator(StreamingSimExecutor(COST, 2), config)
    specs = [([100, 200], 2, arrival, 0) for arrival in arrivals]
    orch.start(workload(specs))
    return orch, calls


@pytest.mark.parametrize("preemptive", [False, True])
def test_nothing_due_ranks_nothing(preemptive):
    orch, calls = counting_orchestrator(preemptive, [5.0, 5.0])
    assert orch._admit_ready() == 0
    assert not orch._urgent_candidate()
    assert calls == []


def test_full_slots_under_a_non_preemptive_policy_rank_nothing():
    orch, calls = counting_orchestrator(False, [0.0, 0.0, 0.0])
    assert orch._admit_ready() == 1
    # Three candidates tied at one key: each got a key and a bias.
    assert calls.count("key") == 3 and calls.count("interleave_key") == 3
    calls.clear()
    assert orch._admit_ready() == 0
    assert not orch._urgent_candidate()
    assert calls == []


def test_full_slots_under_a_preemptive_policy_still_rank():
    orch, calls = counting_orchestrator(True, [0.0, 0.0, 0.0])
    assert orch._admit_ready() == 1
    calls.clear()
    # Equal classes never preempt, but only a ranking can tell.
    assert orch._admit_ready() == 0
    assert not orch._urgent_candidate()
    assert "key" in calls
