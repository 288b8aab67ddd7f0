"""Gateway-vs-sim conformance: a live session replays bit-identically.

The contract the live gateway stands on: a recorded gateway session
(:meth:`~repro.serve.gateway.ServeGateway.recorded_trace`) must produce
an arrival trace whose replay through the existing sim path
(:meth:`~repro.serve.replicaset.ReplicaSet.run`) reproduces the live
session's fleet result **bit-identically** -- identical per-job records,
counters, per-replica makespans, and microbatch streams (atol=0) -- on
*both* fleet kernels (``"event"`` and the ``"lockstep"`` oracle).  The
live session and the batch loop share every line of event dispatch
(:class:`~repro.serve.replicaset.FleetSession` pumps the same
:class:`~repro.serve.replicaset.ReplicaSet` ``run()`` pumps), so any divergence is a real bug, not tolerance noise.

Deterministic pinned scenarios run in tier 1; the hypothesis class
(marked ``slow``) randomizes submit/cancel/overload interleavings,
door limits, and hold windows on top.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import GatewayOverload, ManualClock, ReplicaSet, ServeConfig
from tests.helpers import fingerprint
from tests.lockstep_reference import run_lockstep

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]

#: Irregular virtual-time steps (avoids exact float collisions between
#: submit stamps and wave-close times, the measure-zero case where
#: GATEWAY_INGRESS's kind ordinal could order differently from ARRIVAL).
STEPS = (0.05, 0.13, 0.21, 0.34, 0.55)


def make_job(adapter_id, samples, gbs):
    dataset = synthetic_dataset(
        adapter_id, DATASETS[adapter_id % 4], samples, seed=3
    )
    return AdapterJob(adapter_id, dataset, gbs)


def run_session(config, ops):
    """Drive one scripted gateway session; return its fingerprint + trace.

    ``ops`` is a list of ``("submit", samples, gbs, tenant, deadline)``
    or ``("cancel", adapter_index)`` tuples, each followed by a clock
    step drawn from :data:`STEPS` by position.
    """

    async def drive():
        clock = ManualClock()
        gateway = config.build_gateway(COST, SCHED, clock=clock)
        submitted = []
        for position, op in enumerate(ops):
            if op[0] == "submit":
                _, samples, gbs, tenant, deadline = op
                adapter_id = len(submitted)
                outcome = await gateway.submit(
                    make_job(adapter_id, samples, gbs),
                    tenant=tenant,
                    deadline=deadline,
                )
                submitted.append(outcome)
            else:
                _, index = op
                if submitted:
                    await gateway.cancel(index % len(submitted))
            clock.advance(STEPS[position % len(STEPS)])
        result = await gateway.drain()
        return gateway, result

    gateway, result = asyncio.run(drive())
    return gateway, result, gateway.recorded_trace()


def replay(config, trace, serve):
    """Run the recorded trace through the plain sim path."""
    replica_set = ReplicaSet(*config.build(COST, SCHED))
    return fingerprint(serve(replica_set, trace), replica_set)


def assert_conformant(config, ops):
    gateway, live_result, trace = run_session(config, ops)
    live = fingerprint(live_result.fleet, gateway.replica_set)
    assert replay(config, trace, ReplicaSet.run) == live
    assert replay(config, trace, run_lockstep) == live
    # Ledger conservation rides along on every conformance run.
    stats = live_result.stats
    assert stats.submitted == stats.accepted + stats.shed_total()
    assert stats.accepted == stats.released + stats.cancelled
    assert stats.released == len(trace) == len(live_result.records)
    return live_result, trace


class TestPinnedScenarios:
    def test_plain_session_replays_bit_identical(self):
        config = ServeConfig(num_replicas=2, slots=2, window_batches=1)
        ops = [("submit", 8, 4, "default", None) for _ in range(5)]
        result, trace = assert_conformant(config, ops)
        assert len(trace) == 5
        assert result.stats.shed_total() == 0

    def test_overloaded_session_replays_bit_identical(self):
        # Tight door limits force real sheds; the shed submissions must
        # leave no trace in the fleet.
        config = ServeConfig(
            num_replicas=2,
            slots=2,
            window_batches=1,
            gateway_rate=2.0,
            gateway_burst=1.0,
            gateway_queue_bound=2,
        )
        ops = [
            ("submit", 8, 4, "a" if i % 2 else "b", None) for i in range(8)
        ]
        result, trace = assert_conformant(config, ops)
        assert result.stats.shed_total() > 0
        assert len(trace) == result.stats.released < 8

    def test_holds_and_cancels_replay_bit_identical(self):
        # Held jobs release at their own (future) due stamps during the
        # drain; a cancelled one never reaches the fleet.
        config = ServeConfig(
            num_replicas=2, slots=2, window_batches=1, gateway_hold=0.4
        )
        ops = [
            ("submit", 8, 4, "default", None),
            ("submit", 6, 3, "default", None),
            ("cancel", 1),
            ("submit", 8, 4, "default", None),
            ("submit", 4, 4, "default", 500.0),
        ]
        result, trace = assert_conformant(config, ops)
        assert result.stats.cancelled == 1
        assert len(trace) == 3

    def test_gated_deadline_session_replays_bit_identical(self):
        # Door admission (deadline gate) sheds infeasible submissions;
        # generous ones flow through and the fleet's own gate re-checks.
        config = ServeConfig(
            num_replicas=1, slots=2, window_batches=1, deadline_gate=True
        )
        ops = [
            ("submit", 8, 4, "default", 0.01),  # infeasible at the door
            ("submit", 8, 4, "default", 500.0),
            ("submit", 6, 3, "default", None),
        ]
        result, trace = assert_conformant(config, ops)
        assert result.stats.sheds["infeasible"] == 1
        assert len(trace) == 2

    def test_rebalancing_session_replays_bit_identical(self):
        # A seconds-skew rebalance trigger makes the fleet actually
        # migrate mid-session; conformance must survive control events
        # interleaved with live ingresses.
        config = ServeConfig(
            num_replicas=2,
            routing="round_robin",
            slots=2,
            window_batches=1,
            migration_time_threshold=0.05,
        )
        ops = [("submit", 10 - i, 4, "default", None) for i in range(6)]
        assert_conformant(config, ops)

    def test_repeat_sessions_are_deterministic(self):
        config = ServeConfig(
            num_replicas=2,
            slots=2,
            window_batches=1,
            gateway_rate=3.0,
            gateway_hold=0.2,
        )
        ops = [
            ("submit", 8, 4, "a", None),
            ("submit", 6, 3, "b", None),
            ("cancel", 0),
            ("submit", 8, 4, "a", 400.0),
            ("submit", 4, 4, "b", None),
        ]
        first_gateway, first_result, first_trace = run_session(config, ops)
        second_gateway, second_result, second_trace = run_session(config, ops)
        assert first_trace == second_trace
        assert fingerprint(
            first_result.fleet, first_gateway.replica_set
        ) == fingerprint(second_result.fleet, second_gateway.replica_set)


op_spec = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(min_value=4, max_value=10),  # samples
        st.sampled_from([3, 4]),  # global batch size
        st.sampled_from(["a", "b", "c"]),  # tenant
        st.sampled_from([None, 0.01, 400.0]),  # deadline (one infeasible)
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=9)),
)

limit_spec = st.tuples(
    st.sampled_from([None, 1.5, 4.0]),  # gateway_rate
    st.sampled_from([1.0, 3.0]),  # gateway_burst
    st.sampled_from([None, 2]),  # gateway_queue_bound
    st.sampled_from([None, 0.5]),  # gateway_fairness
    st.sampled_from([0.0, 0.3]),  # gateway_hold
)


@pytest.mark.slow
class TestRandomizedConformance:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(op_spec, min_size=1, max_size=10),
        limits=limit_spec,
        num_replicas=st.sampled_from([1, 2]),
        gate=st.booleans(),
    )
    def test_random_interleavings_replay_bit_identical(
        self, ops, limits, num_replicas, gate
    ):
        rate, burst, bound, fairness, hold = limits
        config = ServeConfig(
            num_replicas=num_replicas,
            slots=2,
            window_batches=1,
            deadline_gate=gate,
            gateway_rate=rate,
            gateway_burst=burst,
            gateway_queue_bound=bound,
            gateway_fairness=fairness,
            gateway_hold=hold,
        )
        result, _ = assert_conformant(config, list(ops))
        for outcome in result.stats.sheds.values():
            assert outcome >= 0


class TestTraceShape:
    def test_recorded_trace_is_release_ordered_and_stamped(self):
        config = ServeConfig(
            num_replicas=1, slots=2, window_batches=1, gateway_hold=0.25
        )
        _, _, trace = run_session(
            config, [("submit", 8, 4, "default", None) for _ in range(4)]
        )
        stamps = [job.arrival_time for job in trace]
        assert stamps == sorted(stamps)
        # Held releases land at submit stamp + hold, not the drain stamp.
        assert stamps[0] == pytest.approx(0.25)

    def test_shed_submissions_never_appear_in_the_trace(self):
        config = ServeConfig(
            num_replicas=1,
            slots=2,
            window_batches=1,
            gateway_rate=1.0,
            gateway_burst=1.0,
        )
        gateway, result, trace = run_session(
            config, [("submit", 8, 4, "default", None) for _ in range(4)]
        )

        async def statuses():
            return [await gateway.status(a) for a in range(4)]

        states = asyncio.run(statuses())
        shed_ids = {a for a, state in enumerate(states) if state == "shed"}
        assert shed_ids  # the bucket really shed something
        assert shed_ids.isdisjoint({job.adapter_id for job in trace})
        assert all(
            isinstance(outcome, GatewayOverload) or True for outcome in states
        )
