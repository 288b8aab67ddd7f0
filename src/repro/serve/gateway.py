"""The live serving gateway: an asyncio front door onto the virtual fleet.

Everything below this module consumes *complete traces*: a list of
:class:`~repro.serve.jobs.ServeJob` arrivals handed to
:meth:`~repro.serve.replicaset.ReplicaSet.run` and replayed inside a sim
loop.  :class:`ServeGateway` is the piece that turns that simulator into
a system: callers ``await submit(...)`` as requests actually happen, and
the gateway maps each submission's wall-clock instant onto the fleet's
virtual time -- a monotone stamp from a :class:`WallClock` (or a
:class:`ManualClock` in tests), an ingress event
(:attr:`~repro.serve.events.EventKind.GATEWAY_INGRESS`) at that stamp,
and a bounded pump of the event kernel up to it.  The fleet never runs
ahead of the door, and the door never reorders time.

**The door is where overload dies.**  Every submission passes four
checks, in a fixed, documented order, before it may enter the fleet:

1. *Per-tenant token-bucket rate limiting* (:attr:`GatewayLimits.rate` /
   :attr:`GatewayLimits.burst`): sustained submission rate above the
   refill rate drains the bucket and sheds with reason
   ``"rate_limited"`` (plus a ``retry_after`` hint, the 429 idiom).
2. *Bounded per-tenant ingress queue* (:attr:`GatewayLimits.queue_bound`):
   a tenant's in-flight backlog -- submissions still held at the door
   plus released jobs the fleet has not yet admitted -- may not exceed
   the bound; beyond it the door sheds with ``"queue_full"`` --
   backpressure, not buffering.
3. *Fairness quota* (:attr:`GatewayLimits.fairness_share`): while other
   tenants are waiting, no tenant may hold more than its share of the
   total ingress backlog (``"quota"``).
4. *Admission at the door*: deadline-carrying submissions are priced by
   the fleet's :class:`~repro.serve.costing.CostEstimator` and tested
   against the same
   :class:`~repro.serve.admission.DeadlineFeasibilityAdmission` gate the
   orchestrator uses (:meth:`~repro.serve.admission
   .DeadlineFeasibilityAdmission.feasible_arrival`) -- a doomed request
   is refused with ``"infeasible"`` before it costs the fleet anything.

A refusal is a value, not an exception: :meth:`ServeGateway.submit`
returns a :class:`GatewayOverload` (the ``429``-style result) and the
shed is counted in the session's :class:`~repro.serve.metrics
.GatewayStats` ledger; an acceptance returns a :class:`GatewayTicket`.
Accepted submissions may sit in a cancellable hold window
(:attr:`GatewayLimits.ingress_hold`) before release; once released into
the fleet a job is owned by the orchestrators and can no longer be
cancelled from the door.

**Conformance is the contract.**  A gateway session records every job it
releases (:meth:`ServeGateway.recorded_trace`, arrival-stamped in
release order); replaying that trace through a fresh
:meth:`~repro.serve.replicaset.ReplicaSet.run` reproduces the live
session's fleet result **bit-identically**, because the session and the
batch loop share every line of event dispatch
(``tests/integration/test_gateway_conformance.py`` asserts it under
hypothesis-randomized submit/cancel/overload interleavings).
``benchmarks/bench_gateway.py`` gates the operational claims: sustained
arrivals/sec, bounded p99 admission latency under a 10x overload burst
and flat over a long run, zero admitted jobs lost, and a shed count
equal to the backpressure ledger.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter, deque
import time as _time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, AsyncIterator, Protocol

from repro.errors import ScheduleError, require_finite, require_int
from repro.scheduler.types import AdapterJob
from repro.serve.admission import DeadlineFeasibilityAdmission
from repro.serve.jobs import ServeJob
from repro.serve.metrics import GatewayStats, JobRecord, ReplicaSetResult
from repro.serve.replicaset import FleetSession, ReplicaSet

if TYPE_CHECKING:
    from repro.runtime.engine import NumericJob
    from repro.serve.costing import CostEstimator

__all__ = [
    "SHED_REASONS",
    "GatewayLimits",
    "GatewayTicket",
    "GatewayOverload",
    "GatewayResult",
    "ManualClock",
    "WallClock",
    "ServeGateway",
]

#: The door's refusal taxonomy, in check order: token bucket, queue
#: bound, fairness quota, deadline feasibility.  Every shed is counted
#: under exactly one of these in :attr:`~repro.serve.metrics
#: .GatewayStats.sheds`.
SHED_REASONS = ("rate_limited", "queue_full", "quota", "infeasible")

#: Slack under which a token bucket still honors a submission, absorbing
#: float refill rounding (a bucket refilled to 0.9999999999999 is full).
_BUCKET_EPSILON = 1e-9

#: Job states :meth:`ServeGateway.stream_progress` treats as terminal.
_TERMINAL_STATUSES = frozenset(
    {"finished", "rejected", "cancelled", "shed", "unknown"}
)


class VirtualClock(Protocol):
    """Anything that can stamp submissions with virtual time."""

    def now(self) -> float:
        """Current virtual time (need not be monotone; the gateway
        clamps its stamps monotone itself)."""
        ...


class WallClock:
    """Virtual time driven by the wall clock.

    The live deployment's clock: virtual zero is the clock's
    construction instant and virtual seconds advance at ``time_scale``
    times wall seconds -- scale above 1.0 to compress a long virtual
    trace into a short wall-clock demo (``examples/gateway_serving.py``
    runs hours of virtual serving in seconds).
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ScheduleError("time_scale must be positive")
        self._scale = time_scale
        self._origin = _time.monotonic()

    def now(self) -> float:
        """Virtual seconds since construction."""
        return (_time.monotonic() - self._origin) * self._scale


class ManualClock:
    """Virtual time advanced explicitly by the caller.

    The deterministic clock tests and benchmarks drive: stamps are
    script-controlled, so a recorded session is reproducible
    byte-for-byte -- the property the conformance suite needs to compare
    a live run against its trace replay.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ScheduleError("a clock cannot start before virtual zero")
        self._now = start

    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (never backward); returns
        the new time."""
        if seconds < 0:
            raise ScheduleError("time only moves forward")
        self._now += seconds
        return self._now


@dataclass(frozen=True)
class GatewayLimits:
    """The door's protection knobs, one frozen bundle.

    Every limit defaults to "off", so a default-constructed gateway
    accepts everything -- protection is opted into per deployment (and
    wired from a :class:`~repro.serve.config.ServeConfig` via
    :meth:`~repro.serve.config.ServeConfig.gateway_limits`).

    Attributes:
        queue_bound: Maximum in-flight submissions per tenant -- held at
            the door plus released but not yet admitted by the fleet;
            beyond it the door sheds ``"queue_full"``.  ``None`` = no
            bound.
        rate: Token-bucket refill, submissions per virtual second per
            tenant; a tenant sustaining more is shed ``"rate_limited"``.
            ``None`` = no rate limit.
        burst: Token-bucket capacity: submissions a tenant may land
            back-to-back before the refill rate binds.
        fairness_share: Maximum fraction of the *total* ingress backlog
            one tenant may occupy while other tenants are waiting
            (``"quota"`` beyond it).  A lone tenant is never
            quota-limited -- fairness has no victim.  ``None`` = no
            quota.
        ingress_hold: Virtual seconds an accepted submission stays held
            (and cancellable) at the door before its release into the
            fleet.  0.0 releases at the submission stamp itself, closing
            the cancellation window.
    """

    queue_bound: int | None = None
    rate: float | None = None
    burst: float = 4.0
    fairness_share: float | None = None
    ingress_hold: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            rate=self.rate,
            burst=self.burst,
            fairness_share=self.fairness_share,
            ingress_hold=self.ingress_hold,
        )
        if self.queue_bound is not None:
            require_int(queue_bound=self.queue_bound)
            if self.queue_bound < 1:
                raise ScheduleError("queue_bound must admit at least one job")
        if self.rate is not None and self.rate <= 0:
            raise ScheduleError("rate must be positive")
        if self.burst < 1:
            raise ScheduleError("burst must allow at least one submission")
        if self.fairness_share is not None and not 0 < self.fairness_share <= 1:
            raise ScheduleError("fairness_share must lie in (0, 1]")
        if self.ingress_hold < 0:
            raise ScheduleError("ingress_hold must be non-negative")


@dataclass(frozen=True)
class GatewayTicket:
    """A submission the door accepted.

    Attributes:
        adapter_id: The submitted job's adapter identity -- the handle
            for :meth:`ServeGateway.status`, :meth:`ServeGateway.cancel`
            and :meth:`ServeGateway.stream_progress`.
        tenant: Billing identity the submission was admitted under.
        submit_time: Virtual stamp of the submission instant.
        release_time: Virtual stamp the job leaves (or left) the door's
            hold window and enters the fleet; equals ``submit_time``
            when :attr:`GatewayLimits.ingress_hold` is 0.
    """

    adapter_id: int
    tenant: str
    submit_time: float
    release_time: float


@dataclass(frozen=True)
class GatewayOverload:
    """A ``429``-style refusal: the door shed the submission.

    Returned (not raised) by :meth:`ServeGateway.submit` -- overload is
    an expected operating regime, not an error -- and counted in the
    session's :class:`~repro.serve.metrics.GatewayStats` ledger.

    Attributes:
        adapter_id: The refused job's adapter identity (free to
            resubmit later; nothing entered the fleet).
        tenant: Tenant the refusal is billed to.
        time: Virtual stamp of the refusal.
        reason: Which door check refused, one of :data:`SHED_REASONS`.
        retry_after: For ``"rate_limited"`` sheds, virtual seconds until
            the tenant's bucket holds a full token again; ``None`` for
            the other reasons (retrying is pointless until state
            changes).
    """

    adapter_id: int
    tenant: str
    time: float
    reason: str
    retry_after: float | None = None


@dataclass(frozen=True)
class GatewayResult:
    """One drained gateway session: the fleet result plus the door ledger.

    Attributes:
        fleet: The :class:`~repro.serve.metrics.ReplicaSetResult` the
            session's released jobs produced (its ``gateway`` field
            carries the same ledger, so fleet-level consumers see the
            ingress story too).
        stats: The door's :class:`~repro.serve.metrics.GatewayStats`:
            accept/shed/cancel counts and wall-clock admission
            latencies.
    """

    fleet: ReplicaSetResult
    stats: GatewayStats

    @property
    def records(self) -> dict[int, JobRecord]:
        """The fleet's per-job lifecycle records, keyed by adapter id."""
        return self.fleet.records

    def admission_latency_percentiles(self) -> dict[str, float]:
        """The door's p50 / p90 / p99 wall-clock admission latencies."""
        return self.stats.admission_latency_percentiles()


@dataclass
class _Submission:
    """One submission at the door, from its decision to its release.

    ``state`` is ``"held"`` (inside the hold window), ``"released"``
    (handed to the fleet), ``"cancelled"`` or ``"shed"``.  ``job`` is
    stamped at submission, and restamped at release so the record holds
    the job the fleet got; it is ``None`` for a shed or cancelled one.
    """

    tenant: str
    state: str
    job: ServeJob | None = None
    release_due: float = 0.0


@dataclass
class ServeGateway:
    """The asyncio front door: live submissions onto the virtual fleet.

    Owns a :class:`~repro.serve.replicaset.FleetSession` (opened from
    ``replica_set`` at construction, which consumes the set's single
    shot) and serializes all door work behind one asyncio lock, so
    concurrent ``submit()`` coroutines see a consistent ledger and the
    fleet sees a single deterministic operation order.

    One record per submission: the door keeps the latest submission of
    each adapter id as one private ``_Submission`` (tenant, state --
    held, released, cancelled or shed -- the job and its release stamp),
    so :meth:`status`, :meth:`cancel` and the duplicate check read one
    lookup, and a resubmission's outcome replaces the old one's.  A FIFO
    holds the held submissions, and a per-tenant counter their in-flight
    backlog (held plus released-unadmitted): up on acceptance, down on
    cancellation or when the fleet reports the job admitted or rejected
    after a pump.  Stamps are clamped monotone and the hold window is
    fixed, so submission order *is* release order: due submissions leave
    from the front of the FIFO, and :meth:`drain` releases the rest in
    the same order.

    Determinism contract: given the same sequence of (operation, virtual
    stamp) pairs -- which a :class:`ManualClock` scripts exactly -- a
    session is bit-reproducible, and its :meth:`recorded_trace` replays
    bit-identically through the sim path.  Under a :class:`WallClock`
    the stamps come from the machine, so two live runs differ; each
    single run still satisfies the conformance property against its own
    recorded trace.

    Args:
        replica_set: The fleet to serve on; must be freshly constructed
            (single-shot).
        limits: Door protection knobs; default accepts everything.
        clock: Virtual-time source; a 1:1 :class:`WallClock` when
            omitted.
    """

    replica_set: ReplicaSet
    limits: GatewayLimits = field(default_factory=GatewayLimits)
    clock: VirtualClock = field(default_factory=WallClock)

    def __post_init__(self) -> None:
        self._session: FleetSession = self.replica_set.open_session()
        orchestrator = self.replica_set.config.orchestrator
        self._estimator: CostEstimator | None = orchestrator.estimator
        admission = orchestrator.admission
        self._gate: DeadlineFeasibilityAdmission | None = (
            admission if isinstance(admission, DeadlineFeasibilityAdmission) else None
        )
        self._lock = asyncio.Lock()
        self.stats = GatewayStats(sheds={reason: 0 for reason in SHED_REASONS})
        self._stamp = 0.0
        self._subs: dict[int, _Submission] = {}  # adapter id -> latest
        self._fifo: deque[_Submission] = deque()  # held, in release order
        self._occupancy: Counter[str] = Counter()  # tenant -> in flight
        self._buckets: dict[str, tuple[float, float]] = {}  # tenant -> (tokens, at)
        self._trace: list[ServeJob] = []
        self._result: GatewayResult | None = None

    # -- the door -----------------------------------------------------------

    async def submit(
        self,
        job: AdapterJob,
        tenant: str = "default",
        priority: int = 0,
        deadline: float | None = None,
        numeric: NumericJob | None = None,
    ) -> GatewayTicket | GatewayOverload:
        """Submit one fine-tuning request at the current virtual instant.

        Stamps the submission from the gateway clock (clamped monotone),
        releases any due held jobs, pumps the fleet up to the stamp, and
        runs the four door checks (see the module docstring).  Returns a
        :class:`GatewayTicket` on acceptance or a
        :class:`GatewayOverload` on refusal -- never raises for
        overload; raises :class:`~repro.errors.ScheduleError` only for
        caller errors (a tenant that is not a non-empty string, a job
        that is not an :class:`~repro.scheduler.types.AdapterJob`, a
        deadline that is not a finite real, a priority that is not an
        integer, a duplicate in-flight adapter id, an invalid payload, a
        closed gateway), before the submission is stamped or counted.

        Args:
            job: The scheduling view of the request (``batch_offset``
                0; the orchestrator windows it).
            tenant: Billing identity rate/quota/queue checks run under,
                exactly as given; must be a non-empty string.
            priority: SLO class (larger = more urgent).
            deadline: Absolute virtual finish-by time; gates the
                submission through deadline-feasibility admission at the
                door.
            numeric: Token-level payload for numeric execution.
        """
        async with self._lock:
            return self._submit(job, tenant, priority, deadline, numeric)

    def _submit(
        self,
        job: AdapterJob,
        tenant: str,
        priority: int,
        deadline: float | None,
        numeric: NumericJob | None,
    ) -> GatewayTicket | GatewayOverload:
        started = _time.perf_counter()
        self._require_open()
        if not isinstance(tenant, str) or not tenant:
            raise ScheduleError(f"tenant must be a non-empty string, not {tenant!r}")
        if not isinstance(job, AdapterJob):
            raise ScheduleError(f"job must be an AdapterJob, not {job!r}")
        require_finite(deadline=deadline)
        adapter_id = job.adapter_id
        latest = self._subs.get(adapter_id)
        if latest is not None and latest.state in ("held", "released"):
            raise ScheduleError(
                f"adapter {adapter_id} is already in flight; one submission "
                "per adapter id at a time"
            )
        # The clock read is clamped monotone over the session.
        stamp = max(self._stamp, float(self.clock.now()))
        expired = deadline is not None and deadline <= stamp
        # Constructing the ServeJob up front validates the payload
        # (numeric consistency, batch_offset 0, an integer priority)
        # before the submission is stamped or counted.  An expired
        # deadline is left off (ServeJob would reject the ordering):
        # that submission is shed below.
        serve_job = ServeJob(
            job=job,
            arrival_time=stamp,
            numeric=numeric,
            priority=priority,
            deadline=None if expired else deadline,
            tenant=tenant,
        )
        self._stamp = stamp
        self.stats.submitted += 1
        self._release_due(stamp)
        self._settle(self._session.advance(stamp))
        refusal: tuple[str, float | None] | None = (
            ("infeasible", None) if expired else self._door(serve_job, tenant, stamp)
        )
        outcome: GatewayTicket | GatewayOverload
        if refusal is not None:
            reason, retry_after = refusal
            self.stats.sheds[reason] += 1
            self._subs[adapter_id] = _Submission(tenant, "shed")
            outcome = GatewayOverload(adapter_id, tenant, stamp, reason, retry_after)
        else:
            self.stats.accepted += 1
            release_due = stamp + self.limits.ingress_hold
            sub = _Submission(tenant, "held", serve_job, release_due)
            self._subs[adapter_id] = sub
            self._occupancy[tenant] += 1
            if self.limits.ingress_hold > 0:
                self._fifo.append(sub)
            else:
                self._release(sub)
                self._settle(self._session.advance(stamp))
            outcome = GatewayTicket(adapter_id, tenant, stamp, release_due)
        self.stats.admission_latencies.append(_time.perf_counter() - started)
        return outcome

    def _door(
        self, serve_job: ServeJob, tenant: str, stamp: float
    ) -> tuple[str, float | None] | None:
        """Run the four door checks: a ``(reason, retry_after)`` refusal,
        or ``None`` to accept."""
        limits = self.limits
        if limits.rate is not None:
            tokens, at = self._buckets.get(tenant, (limits.burst, stamp))
            tokens = min(limits.burst, tokens + (stamp - at) * limits.rate)
            if tokens < 1.0 - _BUCKET_EPSILON:
                self._buckets[tenant] = (tokens, stamp)
                return "rate_limited", (1.0 - tokens) / limits.rate
            # A spent token stays spent even if a later check sheds:
            # refusals bill the tenant's rate too, or retry storms
            # against a full queue would be free.
            self._buckets[tenant] = (tokens - 1.0, stamp)
        mine = self._occupancy[tenant]
        if limits.queue_bound is not None and mine >= limits.queue_bound:
            return "queue_full", None
        if limits.fairness_share is not None:
            others = sum(self._occupancy.values()) - mine
            allowed = max(1, math.ceil(limits.fairness_share * (mine + others + 1)))
            if others > 0 and mine + 1 > allowed:
                return "quota", None
        if serve_job.deadline is not None:
            doomed = serve_job.deadline <= stamp + limits.ingress_hold
            if not doomed and self._gate is not None:
                doomed = not self._gate.feasible_arrival(
                    serve_job, stamp, self._estimator
                )
            if doomed:
                return "infeasible", None
        return None

    def _settle(self, adapter_ids: list[int]) -> None:
        """Count released jobs the fleet just admitted or rejected out of
        their tenants' in-flight backlog.

        The fleet reports each released job once, when it first gains
        an admit or reject time (a finish comes after an admit, and the
        record travels with migrations).  A released id is never
        resubmitted, so its submission is its id's latest.
        """
        for adapter_id in adapter_ids:
            self._occupancy[self._subs[adapter_id].tenant] -= 1

    def _release_due(self, stamp: float) -> None:
        """Release every held job whose hold window has closed by ``stamp``.

        The FIFO is in submission order, which is release order, so the
        due jobs are a prefix; cancelled ones are dropped as they pass.
        """
        fifo = self._fifo
        while fifo and fifo[0].release_due <= stamp:
            sub = fifo.popleft()
            if sub.state == "held":
                self._release(sub)

    def _release(self, sub: _Submission) -> None:
        """Hand one accepted job to the fleet, arrival-stamped at its
        ``release_due``.

        That stamp is never behind a frontier the fleet was already
        pumped to -- held jobs release at their hold expiry, which
        monotone stamping keeps at or after every earlier pump -- so the
        ingested event replays in the same global order it runs live.
        """
        job = sub.job
        assert job is not None  # only accepted submissions are held
        if job.arrival_time != sub.release_due:
            job = sub.job = replace(job, arrival_time=sub.release_due)
        sub.state = "released"
        self._session.ingest(job)
        self._trace.append(job)
        self.stats.released += 1

    # -- job control --------------------------------------------------------

    async def cancel(self, adapter_id: int) -> bool:
        """Cancel a submission still held at the door.

        Only jobs inside their ingress hold window can be cancelled:
        once released, a job belongs to the fleet (its outcome is
        whatever the orchestrators decide).  Returns ``True`` when the
        job was withdrawn, ``False`` otherwise (already released, shed,
        unknown, or the window was 0).  A cancelled adapter id may be
        resubmitted -- nothing of it ever reached the fleet.
        """
        async with self._lock:
            self._require_open()
            sub = self._subs.get(adapter_id)
            if sub is None or sub.state != "held":
                return False
            sub.state = "cancelled"
            sub.job = None  # nothing of it reached the fleet; drop the payload
            self._occupancy[sub.tenant] -= 1
            self.stats.cancelled += 1
            return True

    async def status(self, adapter_id: int) -> str:
        """One job's current state, as a stable lowercase token.

        ``"held"`` (cancellable, inside the hold window), ``"queued"``
        (released; ingress event not yet processed), ``"pending"``
        (in the fleet, awaiting an adapter slot), ``"running"``
        (admitted), ``"finished"``, ``"rejected"`` (shed by in-fleet
        admission), ``"cancelled"``, ``"shed"`` (refused at the door),
        or ``"unknown"``.  Status reads do not advance virtual time --
        the fleet only moves on ``submit`` and ``drain``.
        """
        async with self._lock:
            return self._status(adapter_id)

    def _status(self, adapter_id: int) -> str:
        sub = self._subs.get(adapter_id)
        if sub is None:
            return "unknown"
        if sub.state != "released":
            return sub.state
        record = self._session.record(adapter_id)
        if record is None:
            return "queued"
        if record.rejected_time is not None:
            return "rejected"
        if record.finish_time is not None:
            return "finished"
        if record.admit_time is not None:
            return "running"
        return "pending"

    async def stream_progress(
        self, adapter_id: int, poll: float = 0.0
    ) -> AsyncIterator[str]:
        """Yield a job's status on every change until it is terminal.

        An async generator: yields the current status immediately, then
        re-checks after each ``poll``-second sleep (0.0 = yield to the
        event loop only) and emits every transition, ending after a
        terminal status (``finished`` / ``rejected`` / ``cancelled`` /
        ``shed`` / ``unknown``).  Progress only happens while other
        coroutines drive the gateway -- run it concurrently with the
        submitting/draining task, as ``examples/gateway_serving.py``
        does.
        """
        last: str | None = None
        while True:
            async with self._lock:
                current = self._status(adapter_id)
            if current != last:
                yield current
                last = current
            if current in _TERMINAL_STATUSES:
                return
            await asyncio.sleep(poll)

    # -- session end --------------------------------------------------------

    async def drain(self) -> GatewayResult:
        """Release everything held, run the fleet dry, fold the result.

        Held jobs whose windows are still open release at their own
        ``release_due`` stamps (the fleet sees them arrive then); the
        kernel is then pumped to exhaustion and every replica finished.
        Idempotent: later calls return the same result.  After a drain
        the gateway is closed to new submissions.
        """
        async with self._lock:
            if self._result is None:
                self._release_due(math.inf)
                fleet = self._session.finish()
                fleet.gateway = self.stats
                self._result = GatewayResult(fleet=fleet, stats=self.stats)
            return self._result

    def recorded_trace(self) -> list[ServeJob]:
        """The session's released jobs, arrival-stamped in release order.

        The conformance artifact: running this trace through a fresh
        :meth:`~repro.serve.replicaset.ReplicaSet.run` reproduces the
        live session's fleet result bit-identically.  Shed and cancelled
        submissions never appear -- they never reached the fleet.
        """
        return list(self._trace)

    def _require_open(self) -> None:
        if self._result is not None:
            raise ScheduleError("the gateway is drained; construct a fresh one")
