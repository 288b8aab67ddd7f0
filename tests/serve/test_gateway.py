"""Unit tests for the live serving gateway: clocks, door checks, holds,
cancellation, status streaming, the ledger, and ServeConfig wiring."""

import asyncio
import random
from dataclasses import replace

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    SHED_REASONS,
    GatewayLimits,
    GatewayOverload,
    GatewayResult,
    GatewayTicket,
    ManualClock,
    ServeConfig,
    ServeGateway,
    WallClock,
)

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


def make_job(adapter_id, samples=8, gbs=4):
    dataset = synthetic_dataset(
        adapter_id, DATASETS[adapter_id % 4], samples, seed=3
    )
    return AdapterJob(adapter_id, dataset, gbs)


def make_gateway(clock=None, config=None, **gateway_knobs):
    config = config or ServeConfig(
        num_replicas=1, slots=2, window_batches=1, **gateway_knobs
    )
    return config.build_gateway(COST, SCHED, clock=clock or ManualClock())


def run(coroutine):
    return asyncio.run(coroutine)


class TestClocks:
    def test_manual_clock_scripts_time(self):
        clock = ManualClock(start=1.0)
        assert clock.now() == 1.0
        assert clock.advance(0.5) == 1.5
        assert clock.now() == 1.5

    def test_manual_clock_rejects_regression(self):
        with pytest.raises(ScheduleError):
            ManualClock(start=-1.0)
        with pytest.raises(ScheduleError):
            ManualClock().advance(-0.1)

    def test_wall_clock_is_nondecreasing_from_zero(self):
        clock = WallClock()
        first = clock.now()
        assert first >= 0.0
        assert clock.now() >= first

    def test_wall_clock_rejects_bad_scale(self):
        with pytest.raises(ScheduleError):
            WallClock(time_scale=0.0)


class TestGatewayLimits:
    def test_defaults_are_all_off(self):
        limits = GatewayLimits()
        assert limits.queue_bound is None
        assert limits.rate is None
        assert limits.fairness_share is None
        assert limits.ingress_hold == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_bound": 0},
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0.5},
            {"fairness_share": 0.0},
            {"fairness_share": 1.5},
            {"ingress_hold": -0.1},
        ],
    )
    def test_invalid_limits_are_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            GatewayLimits(**kwargs)


class TestTokenBucket:
    def test_burst_then_rate_limited_with_retry_hint(self):
        async def scenario():
            gateway = make_gateway(gateway_rate=1.0, gateway_burst=2.0)
            first = await gateway.submit(make_job(0))
            second = await gateway.submit(make_job(1))
            third = await gateway.submit(make_job(2))
            assert isinstance(first, GatewayTicket)
            assert isinstance(second, GatewayTicket)
            assert isinstance(third, GatewayOverload)
            assert third.reason == "rate_limited"
            # An empty bucket refills at 1 token/s: a full token is 1s out.
            assert third.retry_after == pytest.approx(1.0)
            return gateway

        gateway = run(scenario())
        assert gateway.stats.sheds["rate_limited"] == 1

    def test_refill_restores_admission(self):
        async def scenario():
            clock = ManualClock()
            gateway = make_gateway(clock, gateway_rate=1.0, gateway_burst=1.0)
            assert isinstance(await gateway.submit(make_job(0)), GatewayTicket)
            shed = await gateway.submit(make_job(1))
            assert isinstance(shed, GatewayOverload)
            clock.advance(1.5)
            retried = await gateway.submit(make_job(1))
            assert isinstance(retried, GatewayTicket)

        run(scenario())

    def test_buckets_are_per_tenant(self):
        async def scenario():
            gateway = make_gateway(gateway_rate=1.0, gateway_burst=1.0)
            assert isinstance(
                await gateway.submit(make_job(0), tenant="a"), GatewayTicket
            )
            # Tenant a's bucket is empty; tenant b's is untouched.
            assert isinstance(
                await gateway.submit(make_job(1), tenant="b"), GatewayTicket
            )
            shed = await gateway.submit(make_job(2), tenant="a")
            assert isinstance(shed, GatewayOverload)
            assert shed.tenant == "a"

        run(scenario())


class TestQueueBound:
    def test_backlog_beyond_bound_sheds_queue_full(self):
        async def scenario():
            # Hold window keeps submissions at the door, so the backlog
            # is fully door-side and deterministic.
            gateway = make_gateway(gateway_queue_bound=2, gateway_hold=10.0)
            assert isinstance(await gateway.submit(make_job(0)), GatewayTicket)
            assert isinstance(await gateway.submit(make_job(1)), GatewayTicket)
            shed = await gateway.submit(make_job(2))
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "queue_full"
            assert shed.retry_after is None

        run(scenario())

    def test_bound_is_per_tenant(self):
        async def scenario():
            gateway = make_gateway(gateway_queue_bound=1, gateway_hold=10.0)
            assert isinstance(
                await gateway.submit(make_job(0), tenant="a"), GatewayTicket
            )
            assert isinstance(
                await gateway.submit(make_job(1), tenant="b"), GatewayTicket
            )
            shed = await gateway.submit(make_job(2), tenant="a")
            assert isinstance(shed, GatewayOverload)

        run(scenario())

    def test_cancel_frees_backlog(self):
        async def scenario():
            gateway = make_gateway(gateway_queue_bound=1, gateway_hold=10.0)
            ticket = await gateway.submit(make_job(0))
            assert isinstance(ticket, GatewayTicket)
            assert await gateway.cancel(0)
            retried = await gateway.submit(make_job(1))
            assert isinstance(retried, GatewayTicket)

        run(scenario())


class TestFairnessQuota:
    def test_lone_tenant_is_never_quota_limited(self):
        async def scenario():
            gateway = make_gateway(gateway_fairness=0.25, gateway_hold=10.0)
            for adapter_id in range(5):
                outcome = await gateway.submit(make_job(adapter_id), tenant="a")
                assert isinstance(outcome, GatewayTicket)

        run(scenario())

    def test_hog_is_quota_limited_once_others_wait(self):
        async def scenario():
            gateway = make_gateway(gateway_fairness=0.5, gateway_hold=10.0)
            assert isinstance(
                await gateway.submit(make_job(0), tenant="hog"), GatewayTicket
            )
            assert isinstance(
                await gateway.submit(make_job(1), tenant="hog"), GatewayTicket
            )
            assert isinstance(
                await gateway.submit(make_job(2), tenant="small"), GatewayTicket
            )
            # hog holds 2 of 3; a 4th total would allow ceil(0.5*4)=2,
            # and hog already holds 2 -- shed.
            shed = await gateway.submit(make_job(3), tenant="hog")
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "quota"
            # The small tenant is under its share and still admitted.
            assert isinstance(
                await gateway.submit(make_job(4), tenant="small"), GatewayTicket
            )

        run(scenario())


class TestDoorAdmission:
    def test_past_deadline_is_shed_infeasible(self):
        async def scenario():
            clock = ManualClock()
            clock.advance(5.0)
            gateway = make_gateway(clock)
            shed = await gateway.submit(make_job(0), deadline=5.0)
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "infeasible"

        run(scenario())

    def test_hold_window_counts_against_the_deadline(self):
        async def scenario():
            gateway = make_gateway(gateway_hold=2.0)
            shed = await gateway.submit(make_job(0), deadline=1.5)
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "infeasible"

        run(scenario())

    def test_deadline_gate_prices_the_arrival(self):
        async def scenario():
            config = ServeConfig(
                num_replicas=1, slots=2, window_batches=1, deadline_gate=True
            )
            gateway = make_gateway(config=config)
            # Far too tight for a real job (service time >> 1ms).
            shed = await gateway.submit(make_job(0), deadline=0.001)
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "infeasible"
            # A generous deadline passes the same gate.
            ok = await gateway.submit(make_job(1), deadline=1000.0)
            assert isinstance(ok, GatewayTicket)

        run(scenario())

    def test_generous_deadline_is_admitted_and_met(self):
        async def scenario():
            gateway = make_gateway()
            assert isinstance(
                await gateway.submit(make_job(0), deadline=1000.0),
                GatewayTicket,
            )
            result = await gateway.drain()
            record = result.records[0]
            assert record.finish_time is not None
            assert record.finish_time <= 1000.0

        run(scenario())


class TestHoldAndCancel:
    def test_held_job_is_cancellable_released_is_not(self):
        async def scenario():
            clock = ManualClock()
            gateway = make_gateway(clock, gateway_hold=1.0)
            await gateway.submit(make_job(0))
            assert await gateway.status(0) == "held"
            clock.advance(2.0)
            # The next operation releases due holds first.
            await gateway.submit(make_job(1))
            assert await gateway.status(0) != "held"
            assert not await gateway.cancel(0)
            assert await gateway.cancel(1)
            assert await gateway.status(1) == "cancelled"

        run(scenario())

    def test_zero_hold_has_no_cancel_window(self):
        async def scenario():
            gateway = make_gateway()
            ticket = await gateway.submit(make_job(0))
            assert ticket.release_time == ticket.submit_time
            assert not await gateway.cancel(0)

        run(scenario())

    def test_cancelled_id_may_resubmit(self):
        async def scenario():
            gateway = make_gateway(gateway_hold=1.0)
            await gateway.submit(make_job(0))
            assert await gateway.cancel(0)
            retried = await gateway.submit(make_job(0))
            assert isinstance(retried, GatewayTicket)
            result = await gateway.drain()
            assert 0 in result.records

        run(scenario())

    def test_shed_resubmission_of_a_cancelled_id_reports_shed(self):
        async def scenario():
            gateway = make_gateway(gateway_queue_bound=1, gateway_hold=1.0)
            await gateway.submit(make_job(0), tenant="a")
            assert await gateway.cancel(0)
            assert isinstance(
                await gateway.submit(make_job(1), tenant="a"), GatewayTicket
            )
            shed = await gateway.submit(make_job(0), tenant="a")
            assert isinstance(shed, GatewayOverload)
            assert shed.reason == "queue_full"
            # The latest submission decides the status, not the cancel.
            assert await gateway.status(0) == "shed"
            assert not await gateway.cancel(0)

        run(scenario())

    def test_cancelled_jobs_never_reach_the_fleet(self):
        async def scenario():
            gateway = make_gateway(gateway_hold=1.0)
            await gateway.submit(make_job(0))
            await gateway.submit(make_job(1))
            assert await gateway.cancel(0)
            result = await gateway.drain()
            assert set(result.records) == {1}
            assert [job.adapter_id for job in gateway.recorded_trace()] == [1]

        run(scenario())


class TestStatusAndStreaming:
    def test_unknown_and_shed_statuses(self):
        async def scenario():
            gateway = make_gateway(gateway_rate=1.0, gateway_burst=1.0)
            assert await gateway.status(7) == "unknown"
            await gateway.submit(make_job(0))
            await gateway.submit(make_job(1))
            assert await gateway.status(1) == "shed"

        run(scenario())

    def test_full_lifecycle_reaches_finished(self):
        async def scenario():
            gateway = make_gateway()
            await gateway.submit(make_job(0))
            await gateway.drain()
            assert await gateway.status(0) == "finished"

        run(scenario())

    def test_stream_progress_emits_transitions_to_terminal(self):
        async def scenario():
            clock = ManualClock()
            gateway = make_gateway(clock, gateway_hold=1.0)
            await gateway.submit(make_job(0))

            async def driver():
                await asyncio.sleep(0)
                clock.advance(5.0)
                await gateway.drain()

            async def watcher():
                states = []
                async for state in gateway.stream_progress(0):
                    states.append(state)
                return states

            states, _ = await asyncio.gather(watcher(), driver())
            assert states[0] == "held"
            assert states[-1] == "finished"
            assert states == sorted(set(states), key=states.index)  # no dups

        run(scenario())


class TestLedger:
    def test_conservation_identities_after_drain(self):
        async def scenario():
            clock = ManualClock()
            gateway = make_gateway(
                clock,
                gateway_rate=1.0,
                gateway_burst=1.0,
                gateway_hold=0.5,
            )
            for adapter_id in range(6):
                await gateway.submit(make_job(adapter_id))
                clock.advance(0.4)
            await gateway.cancel(5)
            result = await gateway.drain()
            stats = result.stats
            assert stats.submitted == 6
            assert stats.submitted == stats.accepted + stats.shed_total()
            assert stats.accepted == stats.released + stats.cancelled
            assert stats.released == len(gateway.recorded_trace())
            assert stats.released == len(result.records)
            assert set(stats.sheds) == set(SHED_REASONS)
            return result

        result = run(scenario())
        assert isinstance(result, GatewayResult)
        assert result.fleet.gateway is result.stats

    def test_admission_latencies_cover_every_decision(self):
        async def scenario():
            gateway = make_gateway(gateway_rate=1.0, gateway_burst=1.0)
            for adapter_id in range(4):
                await gateway.submit(make_job(adapter_id))
            return await gateway.drain()

        result = run(scenario())
        stats = result.stats
        assert len(stats.admission_latencies) == stats.submitted == 4
        percentiles = result.admission_latency_percentiles()
        assert set(percentiles) == {"p50", "p90", "p99"}
        assert all(value >= 0.0 for value in percentiles.values())
        assert percentiles["p50"] <= percentiles["p99"]

    def test_drain_is_idempotent(self):
        async def scenario():
            gateway = make_gateway()
            await gateway.submit(make_job(0))
            first = await gateway.drain()
            second = await gateway.drain()
            assert first is second

        run(scenario())


class TestErrors:
    def test_duplicate_in_flight_id_raises(self):
        async def scenario():
            gateway = make_gateway()
            await gateway.submit(make_job(0))
            with pytest.raises(ScheduleError, match="already in flight"):
                await gateway.submit(make_job(0))

        run(scenario())

    @pytest.mark.parametrize("tenant", ["", None])
    def test_malformed_tenant_is_refused_before_the_door(self, tenant):
        async def scenario():
            gateway = make_gateway(gateway_queue_bound=1, gateway_hold=10.0)
            with pytest.raises(ScheduleError, match="tenant"):
                await gateway.submit(make_job(0), tenant=tenant)
            assert gateway.stats.submitted == 0
            assert await gateway.status(0) == "unknown"
            # Nothing was recorded: the id is free and the bound untouched.
            assert isinstance(await gateway.submit(make_job(0)), GatewayTicket)
            assert gateway.stats.submitted == 1

        run(scenario())

    def test_invalid_payload_is_refused_before_it_is_counted(self):
        async def scenario():
            gateway = make_gateway()
            bad = replace(make_job(0), batch_offset=1)
            with pytest.raises(ScheduleError, match="batch_offset"):
                await gateway.submit(bad)
            assert gateway.stats.submitted == 0
            assert await gateway.status(0) == "unknown"
            assert isinstance(await gateway.submit(make_job(0)), GatewayTicket)
            stats = (await gateway.drain()).stats
            assert stats.submitted == stats.accepted + stats.shed_total() == 1

        run(scenario())

    @pytest.mark.parametrize(
        "job, knobs, match",
        [
            (None, {}, "job must be an AdapterJob"),
            ("adapter", {}, "job must be an AdapterJob"),
            (0, {"deadline": "5"}, "deadline must be a real number"),
            (0, {"deadline": float("nan")}, "deadline must be finite"),
            (0, {"deadline": float("inf")}, "deadline must be finite"),
            (0, {"priority": "hi"}, "priority must be an integer"),
            (0, {"priority": 1.5}, "priority must be an integer"),
            # An expired deadline is shed at the door, but only a
            # well-formed submission is counted as a shed.
            (0, {"priority": 1.5, "deadline": 0.0}, "priority must be an integer"),
        ],
        ids=[
            "none", "str-job", "str-deadline", "nan-deadline", "inf-deadline",
            "str-priority", "float-priority", "float-priority-expired",
        ],
    )
    def test_malformed_submission_is_refused_before_it_is_counted(
        self, job, knobs, match
    ):
        async def scenario():
            gateway = make_gateway(gateway_queue_bound=1)
            with pytest.raises(ScheduleError, match=match):
                await gateway.submit(make_job(0) if job == 0 else job, **knobs)
            assert gateway.stats.submitted == 0
            assert gateway.stats.shed_total() == 0
            assert await gateway.status(0) == "unknown"
            # Nothing was recorded: the id is free and the bound untouched.
            assert isinstance(await gateway.submit(make_job(0)), GatewayTicket)
            assert gateway.stats.submitted == 1

        run(scenario())

    def test_submit_after_drain_raises(self):
        async def scenario():
            gateway = make_gateway()
            await gateway.drain()
            with pytest.raises(ScheduleError, match="drained"):
                await gateway.submit(make_job(0))

        run(scenario())

    def test_gateway_consumes_the_single_shot(self):
        executors, config = ServeConfig(num_replicas=1).build(COST, SCHED)
        from repro.serve import ReplicaSet

        replica_set = ReplicaSet(executors, config)
        ServeGateway(replica_set)
        with pytest.raises(ScheduleError, match="single-shot"):
            replica_set.run([])


class TestServeConfigWiring:
    def test_build_gateway_wires_the_limits(self):
        config = ServeConfig(
            gateway_rate=3.0,
            gateway_burst=6.0,
            gateway_queue_bound=9,
            gateway_fairness=0.5,
            gateway_hold=0.25,
        )
        gateway = config.build_gateway(COST, SCHED, clock=ManualClock())
        assert gateway.limits == GatewayLimits(
            queue_bound=9,
            rate=3.0,
            burst=6.0,
            fairness_share=0.5,
            ingress_hold=0.25,
        )

    def test_default_clock_is_wall_time(self):
        gateway = ServeConfig(num_replicas=1).build_gateway(COST, SCHED)
        assert isinstance(gateway.clock, WallClock)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gateway_rate": 0.0},
            {"gateway_burst": 0.0},
            {"gateway_queue_bound": 0},
            {"gateway_fairness": 2.0},
            {"gateway_hold": -1.0},
        ],
    )
    def test_invalid_gateway_knobs_are_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            ServeConfig(**kwargs)


def brute_occupancy(gateway, tenant):
    """A tenant's backlog recounted from scratch over every submission's
    state and the fleet's job records (never the door's backlog lists)."""
    count = 0
    for adapter_id, sub in gateway._subs.items():
        if sub.tenant != tenant:
            continue
        if sub.state == "held":
            count += 1
        elif sub.state == "released":
            record = gateway._session.record(adapter_id)
            count += record is None or (
                record.admit_time is None
                and record.rejected_time is None
                and record.finish_time is None
            )
    return count


#: Statuses a released job may show, depending on the fleet's progress.
RELEASED_STATUSES = {"queued", "pending", "running", "finished", "rejected"}


class TestOccupancy:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_occupancy_equals_brute_recount(self, seed):
        self.session(seed, queue_bound=6, fairness=0.6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tight_door_sheds_and_resubmits_consistently(self, seed):
        # A tighter door sheds often, so shed ids get resubmitted too.
        self.session(seed, queue_bound=3, fairness=0.4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jobs_rejected_inside_the_fleet_leave_the_count(self, seed):
        # Deadlines the door lets through but a queue outlives: the
        # fleet's gate rejects them, and that settles them too.
        result = self.session(
            seed, queue_bound=6, fairness=0.6, deadlines=True,
            num_replicas=1, deadline_gate=True,
        )
        assert any(r.rejected_time is not None for r in result.records.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_migrating_jobs_settle_once_wherever_they_land(self, seed):
        result = self.session(
            seed, queue_bound=6, fairness=0.6, samples=16,
            num_replicas=3, routing="round_robin", migration_time_threshold=0.01,
        )
        # Queued jobs were rerouted and admitted ones migrated.
        assert result.fleet.reroutes > 0 and result.fleet.migrations > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replicas_joining_mid_session_report_settlements(self, seed):
        result = self.session(
            seed, queue_bound=6, fairness=0.6, samples=16,
            num_replicas=1, autoscale_budget=30.0,
        )
        assert result.fleet.joins > 0

    @staticmethod
    def session(seed, queue_bound, fairness, samples=4, deadlines=False, **fleet):
        """80 random submit/resubmit/cancel/advance steps; after each,
        ``_occupancy`` equals a brute recount, every id's status matches
        the last operation applied to it, and the recorded trace is in
        arrival order.  ``fleet`` overrides the two-replica
        :class:`ServeConfig`; with ``deadlines`` most submissions carry
        one a few seconds out.  Returns the drained result."""
        tenants = ("a", "b", "c")

        async def scenario():
            rng = random.Random(seed)
            clock = ManualClock()
            knobs = {"num_replicas": 2, "slots": 2, "window_batches": 1, **fleet}
            config = ServeConfig(
                gateway_queue_bound=queue_bound,
                gateway_fairness=fairness,
                gateway_hold=0.3,
                **knobs,
            )
            gateway = config.build_gateway(COST, SCHED, clock=clock)
            # adapter id -> the outcome of the last operation applied to it
            last: dict[int, GatewayTicket | GatewayOverload | str] = {}
            stamp = 0.0

            def expected_status(outcome):
                if isinstance(outcome, GatewayOverload):
                    return {"shed"}
                if isinstance(outcome, GatewayTicket):
                    if outcome.release_time > stamp:
                        return {"held"}
                    return RELEASED_STATUSES
                return {outcome}

            def check():
                for tenant in tenants:
                    want = brute_occupancy(gateway, tenant)
                    assert gateway._occupancy[tenant] == want
                for adapter_id, outcome in last.items():
                    assert gateway._status(adapter_id) in expected_status(outcome)
                arrivals = [job.arrival_time for job in gateway.recorded_trace()]
                assert arrivals == sorted(arrivals)

            next_id = 0
            for _ in range(80):
                op = rng.random()
                if op < 0.55:
                    # A fresh id, or a resubmission of a cancelled/shed one.
                    free = [
                        a for a, outcome in last.items()
                        if outcome == "cancelled"
                        or isinstance(outcome, GatewayOverload)
                    ]
                    if free and rng.random() < 0.3:
                        adapter_id = rng.choice(free)
                    else:
                        adapter_id, next_id = next_id, next_id + 1
                    deadline = None
                    if deadlines and rng.random() < 0.8:
                        deadline = clock.now() + rng.uniform(0.5, 4.0)
                    outcome = await gateway.submit(
                        make_job(adapter_id, samples=samples),
                        tenant=rng.choice(tenants),
                        deadline=deadline,
                    )
                    stamp = clock.now()
                    last[adapter_id] = outcome
                elif op < 0.7 and next_id:
                    adapter_id = rng.randrange(next_id)
                    if await gateway.cancel(adapter_id):
                        last[adapter_id] = "cancelled"
                else:
                    clock.advance(rng.choice([0.05, 0.5, 2.0, 10.0]))
                check()
            return await gateway.drain()

        return run(scenario())
