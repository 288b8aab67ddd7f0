"""Price on change: the orchestrator's price memo is sound and bounded.

``OnlineOrchestrator`` memoises each live job's remaining seconds, keyed
by the job object, its remaining batches and the calibration version
(the replica id is fixed for the orchestrator's life, so it is no part
of the key).  :meth:`expected_remaining_seconds` keeps no cache: each
call re-sums that memo.  These tests hold the memo and the total to an
unmemoised recompute, bit for bit, at every wave close; pin when the
estimator is and is not consulted; and check that the memo holds only
live jobs.  The same wave-close oracle also holds the migration read
paths (``migratable_jobs``, ``drainable_jobs``, ``outstanding_batches``)
to the job records, on every golden scenario.
"""

import pytest

from repro.scheduler import AdapterJob
from repro.serve import (
    CalibrationTracker,
    CostEstimator,
    OnlineOrchestrator,
    OrchestratorConfig,
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
    StreamingSimExecutor,
)
from tests.golden.scenarios import (
    COST,
    SCENARIOS,
    StickyRouting,
    fleet,
    make_jobs,
    priced,
    scheduler,
)

def owed(job):
    """A held job's unstepped batches, from its dataset, not the record."""
    return job.serve_job.job.num_global_batches() - job.completed


def unmemoised_total(orch):
    """``expected_remaining_seconds`` priced afresh, in the same order."""
    estimator, replica = orch._estimator, orch.replica_id
    total = 0.0
    for job in [*orch._active.values(), *orch._parked.values(), *orch._pending]:
        total += estimator.job_seconds(job.serve_job.job, owed(job),
                                       replica=replica)
    return total


def unmemoised_pressure(orch):
    """``deadline_pressure`` priced afresh."""
    estimator, now = orch._estimator, orch.clock
    queued = [
        job for job in orch._pending if job.serve_job.arrival_time <= now
    ] + list(orch._parked.values())
    return sum(
        1
        for job in queued
        if job.serve_job.deadline is not None
        and now + estimator.job_seconds(job.serve_job.job, owed(job),
                                        replica=orch.replica_id)
        > job.serve_job.deadline
    )


def check_batch_counts(orch):
    """The migration read paths agree with the job records.

    Every unfinished, unrejected record is either migratable now or
    drainable (never both); ``is_pending`` means never admitted; and the
    batches those paths report sum to ``outstanding_batches``.
    """
    movable = orch.migratable_jobs()
    drainable = orch.drainable_jobs()
    moving = [aid for aid, *_rest in movable]
    draining = [aid for aid, *_rest in drainable]
    live = {
        aid: record for aid, record in orch._records.items()
        if record.finish_time is None and record.rejected_time is None
    }
    assert not set(moving) & set(draining)
    assert sorted(moving + draining) == sorted(live)
    for aid, _batches, _seconds, is_pending in movable:
        assert is_pending == (live[aid].admit_time is None)
    for aid in draining:
        assert live[aid].admit_time is not None
    assert orch.outstanding_batches() == sum(
        batches for _aid, batches, *_rest in movable + drainable
    )


@pytest.fixture
def wave_close_oracle(monkeypatch):
    """Compare memoised and fresh prices around every wave close.

    Every check first holds the batch counts to the records (on any
    orchestrator); the price checks then skip orchestrators without an
    estimator.  Yields a list that collects ``(orchestrator, calibration
    version)`` per check (``None`` when unpriced), and accepts callables
    in ``on_close`` to run just before a close's second check (to move
    calibration mid-run).
    """
    checks: list[tuple[OnlineOrchestrator, int | None]] = []
    on_close: list = []
    close = OnlineOrchestrator._close_wave_estimate

    def check(orch):
        check_batch_counts(orch)
        if orch._estimator is None:
            checks.append((orch, None))
            return
        assert orch.expected_remaining_seconds() == unmemoised_total(orch)
        assert orch.deadline_pressure() == unmemoised_pressure(orch)
        checks.append((orch, orch._calibration_version()))

    def checked_close(orch):
        check(orch)
        close(orch)
        for hook in on_close:
            hook(orch, len(checks))
        check(orch)

    monkeypatch.setattr(OnlineOrchestrator, "_close_wave_estimate", checked_close)
    yield checks, on_close


def calibrated_churn():
    """Preemption, migration and calibration on one fixed fleet."""
    estimator = priced(2, calibrated=True)
    specs = [(24, 2), (20, 2), (4, 2), (16, 2), (4, 2), (6, 2), (12, 2)]
    stamps = [0.0, 0.0, 0.05, 0.07, 0.3, 0.31, 0.4]
    workload = [
        ServeJob(job=job, arrival_time=stamp,
                 deadline=stamp + (0.2 if index % 2 else 400.0))
        for index, (job, stamp) in enumerate(zip(make_jobs(specs), stamps))
    ]
    replica_set = fleet(
        2, 2, slots=1, estimator=estimator, routing=StickyRouting(),
        ordering=SRPTOrdering(preemptive=True, aging_rate=0.5),
        migration_time_threshold=0.05, drain_then_migrate=True,
    )
    return replica_set, workload, estimator.calibration


class TestSoundnessOracle:
    def test_calibrated_fleet_with_preemption_migration_and_seeding(
        self, wave_close_oracle
    ):
        checks, on_close = wave_close_oracle
        replica_set, workload, tracker = calibrated_churn()
        seeded = []

        def seed_once(orch, count):
            if count >= 6 and not seeded:
                tracker.seed_replica(1 - orch.replica_id, 1.5)
                seeded.append(count)

        on_close.append(seed_once)
        result = replica_set.run(workload)
        assert seeded, "seed_replica never ran mid-run"
        assert sum(r.preemptions for r in result.records.values()) > 0
        assert result.migrations > 0 and result.reroutes > 0
        assert len({version for _orch, version in checks}) > 3
        for orch in replica_set.replicas:
            assert orch._prices == {}

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_golden_scenario(self, scenario, wave_close_oracle):
        checks, _on_close = wave_close_oracle
        scenario.run()
        assert checks


def make_priced_orchestrator(slots=1):
    tracker = CalibrationTracker()
    sched = scheduler(1)
    estimator = CostEstimator.for_scheduler(COST, sched, calibration=tracker)
    config = OrchestratorConfig(
        scheduler=sched,
        window_batches=1,
        admission=SlotAdmission(slots),
        ordering=SRPTOrdering(preemptive=True),
        estimator=estimator,
    )
    orch = OnlineOrchestrator(StreamingSimExecutor(COST, 1), config)
    calls = []
    job_seconds = estimator.job_seconds

    def counting(job, *args, **kwargs):
        calls.append(job.adapter_id)
        return job_seconds(job, *args, **kwargs)

    estimator.job_seconds = counting
    return orch, tracker, calls


class TestCountContract:
    def test_a_repeat_look_makes_no_estimator_call(self):
        orch, _tracker, calls = make_priced_orchestrator()
        orch.start([ServeJob(job=job, arrival_time=0.0)
                    for job in make_jobs([(12, 2), (8, 2), (6, 2)])])
        first = orch.expected_remaining_seconds()
        assert sorted(calls) == [0, 1, 2]
        calls.clear()
        assert orch.expected_remaining_seconds() == first
        assert orch.deadline_pressure() == 0
        assert calls == []

    def test_calibration_observe_reprices_every_job(self):
        orch, tracker, calls = make_priced_orchestrator()
        orch.start([ServeJob(job=job, arrival_time=0.0)
                    for job in make_jobs([(12, 2), (8, 2)])])
        before = orch.expected_remaining_seconds()
        calls.clear()
        tracker.observe(1.0, 2.0, tenants=(0,), replica=orch.replica_id)
        after = orch.expected_remaining_seconds()
        assert sorted(calls) == [0, 1]
        assert after > before
        assert after == unmemoised_total(orch)

    @staticmethod
    def spy_lookups(orch):
        """Record every per-job price lookup ``orch`` makes."""
        looks = []
        lookup = orch._remaining_seconds

        def counting_lookup(job, batches):
            looks.append(job.adapter_id)
            return lookup(job, batches)

        orch._remaining_seconds = counting_lookup
        return looks

    @staticmethod
    def assert_resummed(orch, looks):
        """The next look re-sums every live job, bit for bit."""
        looks.clear()
        total = orch.expected_remaining_seconds()
        assert total == unmemoised_total(orch)
        live = orch.num_active + orch.num_parked + orch.num_pending
        assert live > 0 and len(looks) == live

    def test_every_state_change_resums_the_total(self):
        orch, _tracker, _calls = make_priced_orchestrator(slots=1)
        looks = self.spy_lookups(orch)
        jobs = make_jobs([(24, 2), (4, 2), (8, 2)])
        orch.start([ServeJob(job=jobs[0], arrival_time=0.0),
                    ServeJob(job=jobs[1], arrival_time=0.0)])
        self.assert_resummed(orch, looks)
        orch.offer(ServeJob(job=jobs[2], arrival_time=0.0))  # offer
        self.assert_resummed(orch, looks)
        orch._admit(0)  # admit
        self.assert_resummed(orch, looks)
        orch._preempt(0)  # park
        self.assert_resummed(orch, looks)
        orch._admit(0)  # resume
        self.assert_resummed(orch, looks)
        ticket = orch.eject_job(2)  # eject pending
        self.assert_resummed(orch, looks)
        orch.inject_job(ticket)  # re-queue
        self.assert_resummed(orch, looks)
        orch.step()  # step events
        orch.flush()
        self.assert_resummed(orch, looks)
        (active,) = orch._active
        ticket = orch.eject_job(active)  # eject active
        self.assert_resummed(orch, looks)
        orch.inject_job(ticket)  # inject active
        self.assert_resummed(orch, looks)
        orch._preempt(active)
        orch.eject_job(active)  # eject parked
        self.assert_resummed(orch, looks)

    def test_serving_loop_reprices_what_moved(self):
        orch, _tracker, calls = make_priced_orchestrator(slots=1)
        long_job, short_job = make_jobs([(24, 2), (4, 2)])
        orch.start([ServeJob(job=long_job, arrival_time=0.0),
                    ServeJob(job=short_job, arrival_time=0.3)])
        looks = self.spy_lookups(orch)
        parked_seen = stepped_seen = False
        while True:
            before = orch.outstanding_batches()
            if not orch.step():
                break
            calls.clear()
            if orch.has_work():
                self.assert_resummed(orch, looks)
            parked_seen |= orch.num_parked > 0
            # A step that trained batches re-prices the jobs it moved.
            stepped_seen |= bool(calls) and orch.outstanding_batches() < before
        assert parked_seen and stepped_seen
        assert orch._prices == {}

    def test_another_job_under_the_same_adapter_id_misses(self):
        orch, _tracker, calls = make_priced_orchestrator()
        (first,) = make_jobs([(12, 2)])
        orch.start([ServeJob(job=first, arrival_time=0.0)])
        orch.expected_remaining_seconds()
        assert calls == [0]
        # Equal by value, but another object: keyed by identity, it misses.
        twin = AdapterJob(0, first.dataset, first.global_batch_size)
        assert twin == first
        orch._remaining_seconds(twin, first.num_global_batches())
        assert calls == [0, 0]


def test_memo_is_empty_after_a_gateway_drain():
    from tests.golden.scenarios import gateway_session

    replica_set, result = gateway_session()
    assert result.records
    for orch in replica_set.replicas:
        assert orch._prices == {}
