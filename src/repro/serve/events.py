"""The discrete-event fleet kernel: one heap, one global clock.

The fleet loop (:class:`~repro.serve.replicaset.ReplicaSet`) must answer
"who acts next" after every event.  Rescanning every replica's virtual
clock and recomputing every replica's load after every step would be
O(replicas) work per event and O(replicas x jobs) per rebalance check
-- fine for 4 pipelines, hopeless for 1000.  This module is the control
structure that avoids it: a classic discrete-event kernel with a global
binary heap of typed, timestamped events, so finding the next actor is
O(log n) and state is recomputed only for replicas an event actually
touched.

Three properties the serving layer needs shape the design:

**Deterministic total order.**  Events pop in ``(time, priority, seq)``
order, where ``priority`` is the pair ``(kind, lane)`` and ``seq`` is a
monotone creation counter.  Equal-time events therefore resolve by kind
first, then by lane, then by creation order.  Kind first means
:attr:`EventKind.ARRIVAL` beats :attr:`EventKind.WAVE_CLOSE`: a replica
whose clock has exactly reached an arrival's timestamp does not step
until the arrival is routed, so a wave close advances a replica only
while its clock is *strictly* behind the next arrival, and routing sees
every replica as of the arrival instant.  Lane second means replicas at
equal clocks advance in index order and simultaneous arrivals route in
adapter-id order.  Nothing about the order depends on hashing, wall
time, or heap internals, so two runs of the same trace are
byte-identical (``tests/serve/test_events.py`` asserts it).

**An immediate lane for control events.**  Control work -- the
rebalance check after an arrival or wave close, and the migrations and
drains it decides -- must finish before any other timed event gets in,
even one carrying an earlier timestamp (the fleet frontier and a
lagging replica clock are different axes of "now"), or a later event
would see a half-rebalanced fleet.  :meth:`EventKernel.post` queues an
event on a FIFO lane that :meth:`EventKernel.pop` always drains before
touching the heap -- the same device asyncio's ``call_soon`` is.

**Lazy cancellation.**  A replica's next wave-close event is scheduled
at its current clock; a mutation that moves that clock (an offer, a
migration, a drain) makes the fleet loop cancel and reschedule it.
Removing an arbitrary heap entry is O(n); flagging it cancelled and
skipping it at pop time is O(1) amortized, the standard
discrete-event-simulation trick (``heapq`` documents it as the
recommended pattern).  Cancelling an event the kernel already handed
out is a no-op, so the live count never goes negative.

The kernel is deliberately generic -- it knows event *kinds* but not the
serving layer (no serve module is imported here), so the fleet loop,
tests, and future subsystems (autoscalers, trace replayers) can all
drive it.  Clock semantics: :attr:`EventKernel.now` is the timestamp
of the most recently popped *heap* event.  It is **not monotone**:
replica-local clocks lag the fleet's arrival frontier, so a handler may
legitimately schedule -- and the kernel then pops -- work behind the
last popped time.  Handlers must treat each event's own ``time`` as its
clock, never ``now``.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["EventKind", "Event", "EventKernel"]


class EventKind(enum.IntEnum):
    """The typed events the fleet kernel processes.

    The integer values double as the kind component of the heap
    priority, so at equal timestamps an arrival pops before a wave
    close: a replica steps only while its clock is strictly behind the
    next arrival.  The three control kinds (rebalance, migration,
    flush) never enter the heap: the fleet loop posts them on the
    immediate lane (:meth:`EventKernel.post`), so a whole rebalance
    pass completes before any timed event pops.

    The three scale kinds (replica join / retire / reclaim deadline)
    are **appended after** the original five, so traces without scale
    events keep byte-identical pop order and at equal timestamps every
    pre-existing kind still resolves first -- an arrival landing at the
    same instant a replica joins is routed over the fleet as it was
    *before* the join took effect.

    The gateway kind (:attr:`GATEWAY_INGRESS`) follows the same append
    discipline: it comes **after** the original eight, so every trace
    that never touches the live gateway -- every sim run, every
    committed benchmark -- replays with byte-identical pop order.
    """

    #: A job reaching the fleet: route it, offer it to a replica.
    ARRIVAL = 0
    #: A replica with work has reached its next actionable instant:
    #: advance its serving loop by one iteration (one planning wave,
    #: or a drain/fast-forward when nothing is left to plan).
    WAVE_CLOSE = 1
    #: Run one load-skew check of the rebalance pass in flight.
    REBALANCE = 2
    #: Apply one chosen migration (source, target, adapter).
    MIGRATION = 3
    #: Pay a pipeline drain on an overloaded replica to unlock a
    #: migration (the ``drain_then_migrate`` leg).
    FLUSH = 4
    #: A provisioned replica comes online and becomes routable (the
    #: autoscaler's scale-up landing after its provisioning delay).
    REPLICA_JOIN = 5
    #: A replica starts leaving the fleet: graceful scale-down or a
    #: spot reclamation notice; evacuation begins here.
    REPLICA_RETIRE = 6
    #: A reclaimed replica's grace period expires: whatever is still
    #: resident is force-evacuated at a step boundary (never lost).
    RECLAIM_DEADLINE = 7
    #: A live submission the serving gateway released into the fleet:
    #: routed and offered exactly like an :attr:`ARRIVAL`, but carrying
    #: its own kind so a recorded gateway session is distinguishable
    #: from a pre-generated trace (and so non-gateway traces, which
    #: never create this kind, replay byte-identical).
    GATEWAY_INGRESS = 8


@dataclass
class Event:
    """One scheduled (or posted) kernel event.

    Attributes:
        time: Virtual timestamp the event fires at.  For immediate-lane
            events this is the kernel's ``now`` at post time (they fire
            "now" by construction).
        kind: What the event means (see :class:`EventKind`).
        lane: Second priority component, breaking equal-time ties
            *within* a kind deterministically: the replica index for
            wave closes, the adapter id for arrivals.
        seq: Monotone creation counter; the final tie-breaker, so the
            pop order is a total order independent of heap internals.
        payload: Opaque handler data (the kernel never inspects it).
        cancelled: Lazily-deleted marker; cancelled events are skipped
            at pop time (see :meth:`EventKernel.cancel`).
        handed_out: Set when the kernel hands the event out; it is no
            longer queued, so cancelling it changes nothing.
    """

    time: float
    kind: EventKind
    lane: int
    seq: int
    payload: Any = None
    cancelled: bool = False
    handed_out: bool = False

    @property
    def priority(self) -> tuple[int, int]:
        """The ``(kind, lane)`` pair ordering equal-time events."""
        return (int(self.kind), self.lane)


@dataclass
class EventKernel:
    """A deterministic discrete-event heap with an immediate FIFO lane.

    Two queues, one total order:

    * :meth:`schedule` puts a timed event on the binary heap, keyed by
      ``(time, (kind, lane), seq)``.
    * :meth:`post` puts a control event on the immediate lane, a FIFO
      that :meth:`pop` fully drains before the heap is consulted --
      posted work runs "now", ahead of any timed event.

    The kernel counts processed events per kind
    (:attr:`processed`) so throughput benchmarks
    (``benchmarks/bench_fleet_kernel.py``) can report events/sec
    without instrumenting handlers.

    Attributes:
        now: Timestamp of the most recently popped heap event.  Not
            monotone -- see the module docstring's clock semantics.
        processed: Events handed out by :meth:`pop` so far, per kind
            (cancelled events are skipped, not counted).
    """

    now: float = 0.0
    processed: Counter[EventKind] = field(default_factory=Counter)
    _heap: list[tuple[float, tuple[int, int], int, Event]] = field(
        default_factory=list, repr=False
    )
    _soon: deque[Event] = field(default_factory=deque, repr=False)
    _seq: int = 0
    _live: int = 0

    def schedule(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        lane: int = 0,
    ) -> Event:
        """Enqueue a timed event on the heap.

        Scheduling *behind* :attr:`now` is legal and intended: replica
        clocks lag the fleet's arrival frontier, so a routing decision
        made at the frontier schedules the receiving replica's next
        wave at its own (earlier) clock.

        Args:
            time: Virtual timestamp to fire at.
            kind: Event type (also the leading tie-break component).
            payload: Opaque handler data.
            lane: Within-kind tie-break (replica index, adapter id...).

        Returns:
            The event, kept by callers that may need to
            :meth:`cancel` it.
        """
        event = Event(time=time, kind=kind, lane=lane, seq=self._seq, payload=payload)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (time, event.priority, event.seq, event))
        return event

    def post(self, kind: EventKind, payload: Any = None, lane: int = 0) -> Event:
        """Enqueue an immediate event, ahead of every timed one.

        Posted events fire in FIFO order before :meth:`pop` touches the
        heap, regardless of any heap event's timestamp -- the event
        translation of "run this synchronously, now".  Their ``time``
        is :attr:`now` at post time.
        """
        event = Event(
            time=self.now, kind=kind, lane=lane, seq=self._seq, payload=payload
        )
        self._seq += 1
        self._live += 1
        self._soon.append(event)
        return event

    def cancel(self, event: Event) -> None:
        """Lazily delete a pending event (idempotent).

        The event stays queued but is skipped (uncounted) when it
        surfaces -- O(1) instead of an O(n) heap removal.  Cancelling an
        event already handed out is a no-op.
        """
        if not (event.cancelled or event.handed_out):
            event.cancelled = True
            self._live -= 1

    def pop(self) -> Event | None:
        """The next live event in ``(immediate lane, heap)`` order.

        Drains the immediate FIFO first; otherwise pops the heap and
        advances :attr:`now` to the popped event's time.  Cancelled
        events are discarded silently.

        Returns:
            The next event, or ``None`` when nothing live remains.
        """
        return self.pop_until(math.inf)

    def pop_until(self, frontier: float = math.inf) -> Event | None:
        """The next live event whose timestamp is at or before ``frontier``.

        The incremental form of :meth:`pop`, for drivers that interleave
        event processing with live ingestion (the serving gateway pumps
        the fleet only up to each submission's wall-clock-derived
        stamp).  The immediate lane always drains -- posted control work
        runs "now" regardless of any frontier -- but a timed event is
        handed out only when its timestamp is ``<= frontier``; later
        events stay queued for a future call, and :attr:`now` does not
        advance until one of them is actually popped.

        Returns:
            The next live event at or before ``frontier``, or ``None``
            when none is due yet (or nothing live remains).
        """
        while self._soon:
            event = self._soon.popleft()
            if event.cancelled:
                continue
            self._live -= 1
            event.handed_out = True
            self.processed[event.kind] += 1
            return event
        while self._heap:
            if self._heap[0][3].cancelled:
                heapq.heappop(self._heap)
                continue
            time = self._heap[0][0]
            if time > frontier:
                return None
            _, _, _, event = heapq.heappop(self._heap)
            self._live -= 1
            event.handed_out = True
            self.now = time
            self.processed[event.kind] += 1
            return event
        return None

    def __len__(self) -> int:
        """Live (non-cancelled) events still queued."""
        return self._live
